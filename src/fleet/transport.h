// fleet::Transport — the message-passing seam between the coordinator and
// its executors.
//
// The protocol layer (coordinator.cc / worker.cc) only ever sees opaque
// string payloads moving between integer endpoints, so swapping the
// in-process LoopbackTransport for a socket transport changes nothing above
// this interface.  LoopbackTransport exists so the whole fleet protocol —
// leases, heartbeats, re-queues, reconnects — runs inside one ctest/TSan
// process, with injectable faults (drop, delay, duplicate) standing in for
// the network failures a real deployment sees.  Every payload crosses the
// "wire" as real serialized JSON even in-process: the bytes the fuzz tests
// garble are the bytes the protocol actually parses.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/units.h"

namespace collie::fleet {

enum class RecvStatus {
  kMessage,  // *from / *payload filled
  kTimeout,  // nothing arrived within the timeout
  kClosed,   // endpoint closed; no further messages will ever arrive
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Enqueue `payload` for endpoint `to`.  Returns false when `to` is closed
  // (or the fault layer dropped the message — senders cannot tell, exactly
  // like a real network).
  virtual bool send(int from, int to, std::string payload) = 0;

  // Block up to `timeout` for the next message addressed to `self`.
  virtual RecvStatus recv(int self, int* from, std::string* payload,
                          std::chrono::milliseconds timeout) = 0;

  // Close an endpoint: wakes any blocked recv (which then reports kClosed)
  // and makes future sends to it fail.
  virtual void close(int endpoint) = 0;

  // Executor endpoints: 0 .. executors()-1.
  virtual int executors() const = 0;
};

// Matches any endpoint in a FaultRule.
inline constexpr int kAnyEndpoint = -1000;

struct FaultRule {
  enum class Action { kDrop, kDuplicate, kDelay };
  Action action = Action::kDrop;
  int from = kAnyEndpoint;
  int to = kAnyEndpoint;
  // Message-type filter: matches payloads containing "\"type\":\"<type>\""
  // (empty = every payload).  String matching keeps the transport ignorant
  // of the message schema.
  std::string type;
  int skip = 0;    // matching messages to pass through before acting
  int times = -1;  // matches to act on after that (-1 = every one)
  std::chrono::milliseconds delay{0};  // for kDelay
};

// In-process mailbox transport.  Endpoints: kCoordinatorId (-1) and workers
// 0..workers-1.  FIFO per (sender, receiver) pair in the fault-free case;
// kDelay faults deliberately reorder (a delayed message is passed over in
// favour of later ready ones — exactly the reordering a real network does).
class LoopbackTransport final : public Transport {
 public:
  explicit LoopbackTransport(int workers);

  bool send(int from, int to, std::string payload) override;
  RecvStatus recv(int self, int* from, std::string* payload,
                  std::chrono::milliseconds timeout) override;
  void close(int endpoint) override;
  int executors() const override {
    return static_cast<int>(boxes_.size()) - 1;
  }

  void add_fault(FaultRule rule);

  i64 delivered() const { return delivered_.load(std::memory_order_relaxed); }
  i64 dropped() const { return dropped_.load(std::memory_order_relaxed); }
  i64 duplicated() const {
    return duplicated_.load(std::memory_order_relaxed);
  }
  i64 delayed() const { return delayed_.load(std::memory_order_relaxed); }

 private:
  struct Pending {
    int from = 0;
    std::string payload;
    std::chrono::steady_clock::time_point deliver_at;
  };
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> queue;
    bool closed = false;
  };
  struct ArmedRule {
    FaultRule rule;
    int seen = 0;   // matches so far
    int acted = 0;  // matches acted on
  };

  Mailbox* box(int endpoint);
  // kDrop/kDuplicate/kDelay decision for one payload; returns the number of
  // copies to deliver (0 = dropped) and sets *delay for delayed copies.
  int apply_faults(int from, int to, const std::string& payload,
                   std::chrono::milliseconds* delay);

  std::vector<std::unique_ptr<Mailbox>> boxes_;  // index = endpoint + 1
  std::mutex fault_mu_;
  std::vector<ArmedRule> rules_;
  std::atomic<i64> delivered_{0};
  std::atomic<i64> dropped_{0};
  std::atomic<i64> duplicated_{0};
  std::atomic<i64> delayed_{0};
};

}  // namespace collie::fleet
