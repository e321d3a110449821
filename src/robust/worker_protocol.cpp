#include "robust/worker_protocol.hpp"

#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "persist/atomic_file.hpp"  // write_all

namespace msim::robust {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void put_bytes(std::vector<std::uint8_t>& out,
               const std::vector<std::uint8_t>& bytes) {
  put_u64(out, bytes.size());
  out.insert(out.end(), bytes.begin(), bytes.end());
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u64(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

std::uint32_t FieldReader::u32() {
  if (pos_ + 4 > payload_.size()) {
    throw std::runtime_error("worker protocol: truncated u32 field");
  }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(payload_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t FieldReader::u64() {
  if (pos_ + 8 > payload_.size()) {
    throw std::runtime_error("worker protocol: truncated u64 field");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(payload_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::uint8_t FieldReader::u8() {
  if (pos_ >= payload_.size()) {
    throw std::runtime_error("worker protocol: truncated u8 field");
  }
  return payload_[pos_++];
}

std::vector<std::uint8_t> FieldReader::bytes() {
  const std::uint64_t n = u64();
  if (pos_ + n > payload_.size()) {
    throw std::runtime_error("worker protocol: truncated bytes field");
  }
  std::vector<std::uint8_t> out(payload_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                payload_.begin() +
                                    static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::string FieldReader::string() {
  const std::uint64_t n = u64();
  if (pos_ + n > payload_.size()) {
    throw std::runtime_error("worker protocol: truncated string field");
  }
  std::string out(payload_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  payload_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

void encode_frame(WorkerMsg type, const std::vector<std::uint8_t>& payload,
                  std::vector<std::uint8_t>& out) {
  put_u32(out, static_cast<std::uint32_t>(payload.size() + 1));
  out.push_back(static_cast<std::uint8_t>(type));
  out.insert(out.end(), payload.begin(), payload.end());
}

void FrameReader::feed(const std::uint8_t* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame> FrameReader::next() {
  // Compact lazily: drop consumed bytes once they dominate the buffer.
  if (consumed_ > 4096 && consumed_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < 4) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(buf_[consumed_ + static_cast<std::size_t>(i)])
           << (8 * i);
  }
  if (len == 0) throw std::runtime_error("worker protocol: zero-length frame");
  if (avail < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  Frame frame;
  frame.type = static_cast<WorkerMsg>(buf_[consumed_ + 4]);
  frame.payload.assign(
      buf_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 5),
      buf_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 4 + len));
  consumed_ += 4 + static_cast<std::size_t>(len);
  return frame;
}

bool write_frame(int fd, WorkerMsg type,
                 const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> wire;
  wire.reserve(payload.size() + 5);
  encode_frame(type, payload, wire);
  try {
    persist::write_all(fd, {reinterpret_cast<const char*>(wire.data()), wire.size()},
                       "worker pipe");
  } catch (const std::runtime_error&) {
    return false;  // EPIPE and friends: the supervisor is gone
  }
  return true;
}

const WorkerFault* ChaosPlan::fault_for(std::uint64_t cell) const noexcept {
  for (const WorkerFault& f : faults) {
    if (f.cell == cell) return &f;
  }
  return nullptr;
}

ChaosPlan ChaosPlan::parse(const std::string& spec, std::uint64_t total_cells) {
  ChaosPlan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    std::string item = spec.substr(start, end - start);
    if (!item.empty()) {
      WorkerFault fault;
      if (!item.empty() && item.back() == '!') {
        fault.persistent = true;
        item.pop_back();
      }
      const std::size_t at = item.find('@');
      if (at == std::string::npos) {
        throw std::invalid_argument(
            "chaos: item '" + item +
            "' is not ACTION@CELL (e.g. kill@5, segv@13, hang@21, kill@2!)");
      }
      const std::string action = item.substr(0, at);
      if (action == "kill") {
        fault.action = WorkerFault::Action::kKill;
      } else if (action == "segv") {
        fault.action = WorkerFault::Action::kSegv;
      } else if (action == "hang") {
        fault.action = WorkerFault::Action::kHang;
      } else {
        throw std::invalid_argument("chaos: unknown action '" + action +
                                    "' (kill | segv | hang)");
      }
      const std::string cell = item.substr(at + 1);
      if (cell.empty() ||
          cell.find_first_not_of("0123456789") != std::string::npos) {
        throw std::invalid_argument("chaos: '" + cell +
                                    "' is not a grid cell index");
      }
      fault.cell = std::stoull(cell);
      if (plan.fault_for(fault.cell) != nullptr) {
        throw std::invalid_argument("chaos: duplicate fault for cell " + cell);
      }
      if (fault.cell >= total_cells) {
        throw std::invalid_argument("chaos: cell " + cell +
                                    " is outside this sweep's grid of " +
                                    std::to_string(total_cells) + " cells");
      }
      plan.faults.push_back(fault);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return plan;
}

void perform_worker_fault(const WorkerFault& fault,
                          const std::function<void()>& stop_heartbeat) {
  switch (fault.action) {
    case WorkerFault::Action::kKill:
      (void)::raise(SIGKILL);
      break;
    case WorkerFault::Action::kSegv:
      (void)::raise(SIGSEGV);
      break;
    case WorkerFault::Action::kHang:
      break;
  }
  // kHang (or a raise that somehow returned): go dark.  The supervisor's
  // missed-heartbeat detector must SIGKILL this process.
  if (stop_heartbeat) stop_heartbeat();
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
}

}  // namespace msim::robust
