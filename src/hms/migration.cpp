#include "hms/migration.hpp"

#include <algorithm>
#include <chrono>

#include "common/assert.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "trace/counters.hpp"
#include "trace/trace.hpp"

namespace tahoe::hms {
namespace {

void sleep_seconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

MigrationEngine::MigrationEngine(ObjectRegistry& registry, Mode /*mode*/)
    : registry_(registry), worker_([this] { worker_loop(); }) {}

MigrationEngine::~MigrationEngine() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_enqueue_.notify_all();
  worker_.join();
}

void MigrationEngine::enqueue(const MigrationRequest& req) {
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Degradation: once an object is pinned, later attempts to promote it
    // are known to fail — drop them instead of burning the helper thread
    // on doomed copies.
    if (req.dst != registry_.capacity_tier() && pinned_.contains(req.object)) {
      ++cancelled_;
      trace::global_counters().get("migrate.cancelled").increment();
      return;
    }
    TAHOE_REQUIRE(!stop_, "enqueue after engine shutdown");
    queue_.push_back(req);
    if (trace::histograms_enabled()) {
      queue_.back().enqueue_seconds = trace::now_seconds();
    }
    depth = queue_.size();
  }
  cv_enqueue_.notify_one();
  trace::global_counters().gauge("migrate.queue_depth").set(depth);
  trace::Tracer& tracer = trace::global();
  if (tracer.enabled()) {
    tracer.counter(trace::kMigrationTrack, "migrate_queue_depth",
                   trace::now_seconds(), depth);
  }
}

void MigrationEngine::execute(const MigrationRequest& req) {
  trace::Tracer& tracer = trace::global();
  const bool traced = tracer.enabled();
  const DataObject& obj = registry_.get(req.object);
  const std::uint64_t bytes = obj.chunk(req.chunk).bytes;
  const memsim::DeviceId src = obj.chunk(req.chunk).device;
  const bool hist = trace::histograms_enabled();
  const double begin = (traced || hist) ? trace::now_seconds() : 0.0;

  // Chaos hook: a stalled copy.
  sleep_seconds(fault::global().stall_seconds());

  MigrateResult res = registry_.try_migrate_chunk(req.object, req.chunk,
                                                  req.dst);
  // Transient aborts get bounded retries with doubling backoff; exhaustion
  // does not (retrying a full tier without eviction cannot succeed).
  double backoff = kRetryBackoffSeconds;
  for (int attempt = 0;
       res == MigrateResult::kAborted && attempt < kMaxRetries; ++attempt) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++retried_;
    }
    trace::global_counters().get("migrate.retried").increment();
    sleep_seconds(backoff);
    backoff *= 2.0;
    res = registry_.try_migrate_chunk(req.object, req.chunk, req.dst);
  }

  const bool ok =
      res == MigrateResult::kMoved || res == MigrateResult::kAlreadyThere;
  if (traced && src != req.dst) {
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::Complete;
    ev.track = trace::kMigrationTrack;
    ev.ts = begin;
    ev.dur = trace::now_seconds() - begin;
    ev.set_name(ok ? "migrate" : "migrate (rejected)");
    ev.add_arg("bytes", bytes);
    ev.add_arg("src_tier", src);
    ev.add_arg("dst_tier", req.dst);
    ev.add_arg("object", req.object);
    tracer.emit(ev);
  }
  if (ok && src != req.dst) {
    // Bytes into tier 0 vs everywhere else (perfbench reads both names).
    static trace::Counter& to_dram =
        trace::global_counters().get("migrate.bytes.to_dram");
    static trace::Counter& to_nvm =
        trace::global_counters().get("migrate.bytes.to_nvm");
    (req.dst == memsim::kDram ? to_dram : to_nvm).add(bytes);
    if (hist) {
      static trace::Histogram& copy_seconds =
          trace::global_counters().histogram("migrate.copy_seconds");
      copy_seconds.record_seconds(trace::now_seconds() - begin);
    }
  }
  if (res == MigrateResult::kNoSpace) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++rejected_;
    TAHOE_WARN("migration of object " << req.object << " chunk " << req.chunk
                                      << " rejected: no space on tier "
                                      << req.dst);
  } else if (res == MigrateResult::kAborted) {
    // Degrade: give up on this request and pin the object to the capacity
    // tier so later promotions that would keep failing are dropped.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++aborted_;
      if (req.dst != registry_.capacity_tier() &&
          pinned_.insert(req.object).second) {
        pin_order_.push_back(req.object);
      }
    }
    trace::global_counters().get("migrate.aborted").increment();
    TAHOE_WARN("migration of object " << req.object << " chunk " << req.chunk
                                      << " abandoned after "
                                      << kMaxRetries << " retries");
  }
}

void MigrationEngine::worker_loop() {
  for (;;) {
    MigrationRequest req;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_enqueue_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        TAHOE_ASSERT(stop_, "worker woke without work or stop");
        return;
      }
      req = queue_.front();
      queue_.pop_front();
      // Mark in-flight so wait_tag/drain observe it as incomplete while
      // the copy runs outside the lock; cancel_tag never touches it.
      active_ = req;
      trace::global_counters().gauge("migrate.queue_depth").set(queue_.size());
    }
    if (req.enqueue_seconds > 0.0 && trace::histograms_enabled()) {
      static trace::Histogram& queue_wait =
          trace::global_counters().histogram("migrate.queue_wait_seconds");
      queue_wait.record_seconds(trace::now_seconds() - req.enqueue_seconds);
    }
    execute(req);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      active_.reset();
    }
    cv_done_.notify_all();
  }
}

void MigrationEngine::wait_tag(std::uint64_t tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [this, tag] {
    if (active_ && active_->tag <= tag) return false;
    for (const MigrationRequest& r : queue_) {
      if (r.tag <= tag) return false;
    }
    return true;
  });
}

bool MigrationEngine::wait_tag_for(std::uint64_t tag, double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_done_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds), [this, tag] {
        if (active_ && active_->tag <= tag) return false;
        for (const MigrationRequest& r : queue_) {
          if (r.tag <= tag) return false;
        }
        return true;
      });
}

std::size_t MigrationEngine::cancel_tag(std::uint64_t tag) {
  std::size_t n = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto doomed = [tag](const MigrationRequest& r) {
      return r.tag <= tag;
    };
    n = static_cast<std::size_t>(
        std::count_if(queue_.begin(), queue_.end(), doomed));
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(), doomed),
                 queue_.end());
    cancelled_ += n;
  }
  if (n > 0) {
    trace::global_counters().get("migrate.cancelled").add(n);
    cv_done_.notify_all();
  }
  return n;
}

void MigrationEngine::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [this] { return queue_.empty() && !active_; });
}

std::uint64_t MigrationEngine::rejected() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rejected_;
}

std::uint64_t MigrationEngine::retried() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return retried_;
}

std::uint64_t MigrationEngine::aborted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return aborted_;
}

std::uint64_t MigrationEngine::cancelled() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cancelled_;
}

std::vector<ObjectId> MigrationEngine::degraded_objects() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return pin_order_;
}

bool MigrationEngine::is_pinned(ObjectId id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return pinned_.contains(id);
}

std::size_t MigrationEngine::pending() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() + (active_ ? 1 : 0);
}

}  // namespace tahoe::hms
