// Asynchronous migration engine: the "helper thread" of the paper line.
//
// The main thread enqueues migration requests into a FIFO queue; a helper
// thread dequeues and performs the copies (real memcpy + pointer
// redirection via the ObjectRegistry) in parallel with application
// execution. The queue doubles as the synchronization mechanism: at a phase
// boundary the runtime calls wait_tag() to ensure the moves needed by the
// upcoming tasks have completed. (The simulator does not use this engine:
// SimExecutor models copies as flows and moves placement itself.)
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "hms/registry.hpp"

namespace tahoe::hms {

struct MigrationRequest {
  ObjectId object = kInvalidObject;
  std::size_t chunk = 0;
  memsim::DeviceId dst = memsim::kDram;
  /// Monotonic tag; wait_tag(t) blocks until all requests with tag <= t
  /// are done. The runtime tags requests with the phase that needs them.
  std::uint64_t tag = 0;
  /// Stamped by enqueue() when histograms are enabled; the dequeue side
  /// records the queue-wait latency from it. 0 = unstamped.
  double enqueue_seconds = 0.0;
};

class MigrationEngine {
 public:
  /// The engine always runs one helper thread. The single-value enum stays
  /// because the benchmark harness (perfbench/) spells
  /// `MigrationEngine(registry, Mode::HelperThread)`.
  enum class Mode { HelperThread };

  /// Retries after a transient (aborted) copy before giving up on the
  /// request and pinning its object to the capacity tier.
  static constexpr int kMaxRetries = 3;
  /// Backoff before the first retry; doubles per attempt.
  static constexpr double kRetryBackoffSeconds = 50e-6;

  explicit MigrationEngine(ObjectRegistry& registry,
                           Mode mode = Mode::HelperThread);
  ~MigrationEngine();

  MigrationEngine(const MigrationEngine&) = delete;
  MigrationEngine& operator=(const MigrationEngine&) = delete;

  /// Enqueue a request for the helper thread; never blocks. Promotions
  /// (any destination but the registry's capacity tier) of objects that
  /// earlier degraded to pinned are dropped (counted as cancelled).
  void enqueue(const MigrationRequest& req);

  /// Block until every request with tag <= `tag` has been processed.
  void wait_tag(std::uint64_t tag);

  /// Like wait_tag() but gives up after `timeout_seconds`. Returns true if
  /// the tag completed, false on timeout (e.g. a stalled copy); the caller
  /// can then cancel_tag() and proceed degraded.
  bool wait_tag_for(std::uint64_t tag, double timeout_seconds);

  /// Remove every *queued* request with tag <= `tag` that has not started
  /// executing. The in-flight request (if any) is never interrupted — its
  /// copy completes safely. Returns the number of requests cancelled.
  std::size_t cancel_tag(std::uint64_t tag);

  /// Block until the queue is fully drained.
  void drain();

  /// Requests whose destination had no space (the planner should have
  /// prevented these; counted for diagnostics).
  std::uint64_t rejected() const;

  /// Retry attempts after transient copy aborts.
  std::uint64_t retried() const;
  /// Requests abandoned after exhausting retries.
  std::uint64_t aborted() const;
  /// Requests cancelled before execution (cancel_tag or pinned-object drop).
  std::uint64_t cancelled() const;

  /// Objects pinned to the capacity tier after repeated copy failures, in
  /// pin order.
  std::vector<ObjectId> degraded_objects() const;
  bool is_pinned(ObjectId id) const;

  std::size_t pending() const;

 private:
  void worker_loop();
  void execute(const MigrationRequest& req);

  ObjectRegistry& registry_;

  mutable std::mutex mutex_;
  std::condition_variable cv_enqueue_;
  std::condition_variable cv_done_;
  std::deque<MigrationRequest> queue_;
  /// Request currently executing on the helper thread; wait_tag/drain/
  /// pending treat it as outstanding even though it left the queue.
  std::optional<MigrationRequest> active_;
  std::uint64_t rejected_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t cancelled_ = 0;
  std::unordered_set<ObjectId> pinned_;
  std::vector<ObjectId> pin_order_;
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace tahoe::hms
