// Bounded TCP accept queue (the kernel "backlog").
//
// The paper's MaxSysQDepth arithmetic is thread-pool size + TCP buffer
// (backlog) size, 128 on their Linux kernel. A server admits a request
// either into a free worker or into this queue; when both are full the
// packet is dropped and the sender retransmits per RtoPolicy.
//
// The admission mode generalizes "when both are full" beyond the
// paper's drop-and-retransmit kernel (docs/PROTOCOLS.md):
//
//   kTcpDrop    — classic bounded backlog: overflow drops the packet and
//                 the sender eats an RTO (the CTQO mechanism).
//   kSynCookies — stateless overflow handling: the kernel answers the
//                 SYN without a queue slot, so the connection is
//                 *accepted* instead of dropped, but the cookie slow
//                 path costs extra server work (SyncConfig::
//                 cookie_penalty). Overflow admits are counted in
//                 cookie_admits() and the backlog may grow beyond
//                 capacity().
//   kBypass     — kernel-bypass transport (eRPC-style): there is no
//                 kernel queue to overflow; every request is admitted
//                 into userspace queueing.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ntier::net {

// What a full accept queue does to the next arriving packet (see the
// class comment above; selected per server via SyncConfig::admission
// and per protocol profile via net/protocol.h).
enum class AdmissionMode { kTcpDrop, kSynCookies, kBypass };
const char* to_string(AdmissionMode m);

// The admission rule of one server's accept queue: its capacity, its
// admission mode and the SYN-cookie overflow counter. The server owns
// the waiting requests and passes their count to try_admit().
class TcpQueue {
 public:
  // A queue holding at most `capacity` waiting requests (in kTcpDrop
  // mode; cookie/bypass modes may exceed it).
  explicit TcpQueue(std::size_t capacity) : capacity_(capacity) {}

  // Waiting requests a kTcpDrop backlog holds before it drops.
  std::size_t capacity() const { return capacity_; }

  // The overflow behaviour (set once at wiring time, before traffic).
  AdmissionMode mode() const { return mode_; }
  void set_mode(AdmissionMode m) { mode_ = m; }

  // Outcome of one admission attempt: a regular slot, a SYN-cookie
  // overflow admit (slow path), or a drop.
  enum class Admit { kSlot, kCookie, kDrop };

  // Admits one request per the admission mode, given `depth` requests
  // already waiting; counts the overflow admit in kSynCookies mode.
  Admit try_admit(std::size_t depth) {
    if (depth < capacity_ || mode_ == AdmissionMode::kBypass) return Admit::kSlot;
    if (mode_ == AdmissionMode::kTcpDrop) return Admit::kDrop;
    ++cookie_admits_;
    return Admit::kCookie;
  }

  // Overflow admissions taken on the SYN-cookie slow path.
  std::uint64_t cookie_admits() const { return cookie_admits_; }

 private:
  std::size_t capacity_;
  AdmissionMode mode_ = AdmissionMode::kTcpDrop;
  std::uint64_t cookie_admits_ = 0;
};

}  // namespace ntier::net
