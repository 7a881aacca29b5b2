#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "fault/inject.h"
#include "serve/protocol.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace snnskip::serve {

namespace {

/// Promise adapter: maps Outcome onto the Ticket future (exceptions for
/// everything that is not Ok, so result.get() keeps throwing like before
/// deadlines existed).
std::function<void(Outcome)> promise_completion(
    std::shared_ptr<std::promise<Tensor>> prom) {
  return [prom = std::move(prom)](Outcome o) {
    if (o.status == RequestStatus::Ok) {
      prom->set_value(std::move(o.value));
    } else {
      const char* what = o.status == RequestStatus::Expired
                             ? "serve::Server: deadline expired"
                             : "serve::Server: request failed";
      prom->set_exception(std::make_exception_ptr(std::runtime_error(
          o.error.empty() ? what : std::string(what) + ": " + o.error)));
    }
  };
}

}  // namespace

Server::Server(ModelRegistry& registry, ServeOptions opts)
    : opts_(opts), registry_(registry) {
  latency_ring_.assign(std::max<std::size_t>(1, opts_.latency_window), 0.0);
  pool_ = std::make_unique<ThreadPool>(
      static_cast<std::size_t>(std::max<std::int64_t>(1, opts_.workers)));
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Server::~Server() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  dispatcher_.join();
  pool_.reset();  // joins workers (all batches already finished by drain)
}

void Server::add_model(const ModelSpec& spec) {
  ModelHandle model = registry_.load(spec);
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    throw std::logic_error("serve::Server: add_model after drain");
  }
  ModelQueue& q = queues_[spec.name];
  q.model = std::move(model);
}

void Server::submit_async(const std::string& model, std::vector<Tensor> frames,
                          const SubmitOptions& sub,
                          std::function<void(Outcome)> done) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = queues_.find(model);
  if (it == queues_.end()) {
    throw std::invalid_argument("serve::Server: unknown model '" + model +
                                "'");
  }
  const Shape& in = it->second.model->plan()->input_shape;
  if (frames.empty()) {
    throw std::invalid_argument("serve::Server: empty request sequence");
  }
  const Shape frame_shape{in[1], in[2], in[3]};
  for (const Tensor& f : frames) {
    if (f.shape() != frame_shape) {
      throw std::invalid_argument(
          "serve::Server: frame shape does not match the model's compiled "
          "(C, H, W)");
    }
  }

  // Admission control: shed load at the edge once the backlog passes the
  // watermark (or when draining), with a retry hint sized to the time the
  // current backlog needs to clear at one batch per latency budget.
  const bool full = pending_total_ >= opts_.queue_capacity;
  if (draining_ || full || SNNSKIP_FAULT("serve.queue_full")) {
    ++rejected_;
    Telemetry::count("serve.rejected");
    Outcome o;
    o.status = RequestStatus::Rejected;
    o.retry_after_us =
        draining_ ? 0
                  : opts_.latency_budget_us *
                        (1 + pending_total_ / std::max<std::int64_t>(
                                                  1, opts_.max_batch));
    o.error = draining_ ? "draining" : "queue full";
    lock.unlock();
    done(std::move(o));
    return;
  }

  auto req = std::make_unique<Request>();
  req->frames = std::move(frames);
  req->done = std::move(done);
  req->enqueue_ns = Telemetry::now_ns();
  req->deadline_ns = sub.deadline_ns;
  it->second.pending.push_back(std::move(req));
  ++pending_total_;
  ++accepted_;
  depth_high_water_ = std::max(depth_high_water_, pending_total_);
  Telemetry::count("serve.requests");
  Telemetry::count_max("serve.queue_depth.high_water",
                       static_cast<double>(pending_total_));
  lock.unlock();
  cv_.notify_one();
}

Server::Ticket Server::submit(const std::string& model,
                              std::vector<Tensor> frames,
                              const SubmitOptions& sub) {
  Ticket t;
  auto prom = std::make_shared<std::promise<Tensor>>();
  std::future<Tensor> fut = prom->get_future();
  // Admission rejections complete synchronously; map them onto the
  // rejected-Ticket shape instead of a future exception so existing
  // backpressure callers keep their retry_after_us hint. The rejection
  // flag lives in shared state captured BY VALUE — the callback must
  // never hold references into this frame, because nothing but the
  // current synchronous-rejection invariant keeps it from running after
  // submit() returns. If that invariant ever breaks, the rejection also
  // settles the promise below, so the accepted-looking future the caller
  // got throws instead of dangling forever.
  struct RejectGate {
    bool rejected = false;
    std::int64_t retry_after_us = 0;
  };
  auto gate = std::make_shared<RejectGate>();
  submit_async(model, std::move(frames), sub, [gate, prom](Outcome o) {
    if (o.status == RequestStatus::Rejected) {
      gate->rejected = true;
      gate->retry_after_us = o.retry_after_us;
      prom->set_exception(std::make_exception_ptr(std::runtime_error(
          "serve::Server: request rejected (retry in " +
          std::to_string(o.retry_after_us) + "us)")));
      return;
    }
    promise_completion(prom)(std::move(o));
  });
  if (gate->rejected) {
    t.accepted = false;
    t.retry_after_us = gate->retry_after_us;
    return t;
  }
  t.accepted = true;
  t.result = std::move(fut);
  return t;
}

Tensor Server::infer(const std::string& model, std::vector<Tensor> frames) {
  Ticket t = submit(model, std::move(frames));
  if (!t.accepted) {
    throw std::runtime_error("serve::Server: request rejected (retry in " +
                             std::to_string(t.retry_after_us) + "us)");
  }
  return t.result.get();
}

bool Server::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  cv_.notify_all();
  auto done = [this] { return pending_total_ == 0 && in_flight_batches_ == 0; };
  if (opts_.drain_timeout_ms <= 0) {
    drain_cv_.wait(lock, done);
    return true;
  }
  if (drain_cv_.wait_for(lock, std::chrono::milliseconds(opts_.drain_timeout_ms),
                         done)) {
    return true;
  }
  // Timed out: a worker is wedged or a batch is pathologically slow. Fail
  // whatever is still QUEUED so no promise dangles, and latch
  // drain_expired_ so batches parked in the worker queue fast-fail at
  // pickup instead of burning engine time nobody is waiting on. The
  // batch a worker is executing right now still completes normally.
  drain_expired_.store(true, std::memory_order_relaxed);
  std::vector<std::unique_ptr<Request>> orphans;
  for (auto& [name, q] : queues_) {
    while (!q.pending.empty()) {
      orphans.push_back(std::move(q.pending.front()));
      q.pending.pop_front();
      --pending_total_;
    }
  }
  failed_ += static_cast<std::int64_t>(orphans.size());
  lock.unlock();
  SNNSKIP_LOG(Warn) << "serve: drain timed out after "
                    << opts_.drain_timeout_ms << "ms; failing "
                    << orphans.size() << " queued request(s)";
  for (auto& req : orphans) {
    Outcome o;
    o.status = RequestStatus::Failed;
    o.error = "drain timeout";
    req->done(std::move(o));
  }
  return false;
}

bool Server::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

std::vector<std::unique_ptr<Server::Request>> Server::collect_expired() {
  std::vector<std::unique_ptr<Request>> shed;
  const std::int64_t now = wire::mono_now_ns();
  for (auto& [name, q] : queues_) {
    for (auto it = q.pending.begin(); it != q.pending.end();) {
      Request& r = **it;
      if (r.deadline_ns > 0 && now >= r.deadline_ns) {
        shed.push_back(std::move(*it));
        it = q.pending.erase(it);
        --pending_total_;
      } else {
        ++it;
      }
    }
  }
  return shed;
}

void Server::dispatcher_loop() {
  const std::int64_t budget_ns = opts_.latency_budget_us * 1000;
  const std::int64_t linger_ns =
      std::min(opts_.linger_us, opts_.latency_budget_us) * 1000;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    // Shed requests whose deadline already expired BEFORE assembling any
    // batch: engine time is the scarce resource, and an answer past its
    // deadline is wasted work. Draining flushes everything regardless —
    // the client is still waiting on those futures.
    std::vector<std::unique_ptr<Request>> shed;
    if (!draining_) shed = collect_expired();
    if (!shed.empty()) {
      expired_ += static_cast<std::int64_t>(shed.size());
      lock.unlock();
      for (auto& req : shed) {
        Telemetry::count("serve.deadline_expired");
        Outcome o;
        o.status = RequestStatus::Expired;
        o.error = "deadline expired before batch assembly";
        req->done(std::move(o));
      }
      shed.clear();
      lock.lock();
      // mu_ was released while completing the shed requests; stop() may
      // have set stopping_ and fired its (then-unheard) notify in that
      // window. Re-evaluate the loop condition before committing to a
      // wait, or the untimed cv_.wait below sleeps through the join.
      continue;
    }

    // Cut every ready batch: batch-full queues immediately, deadline-hit
    // queues by the age of their OLDEST pending request, everything when
    // draining. Work-conserving: while a worker is idle the deadline is
    // the short linger, not the full budget — holding a batch open only
    // buys throughput when every worker is busy anyway.
    auto wait_ns = [&] {
      return in_flight_batches_ < opts_.workers ? linger_ns : budget_ns;
    };
    for (auto& [name, q] : queues_) {
      const std::int64_t cap =
          std::min<std::int64_t>(opts_.max_batch, q.model->batch_capacity());
      while (!q.pending.empty() &&
             (static_cast<std::int64_t>(q.pending.size()) >= cap ||
              draining_ ||
              Telemetry::now_ns() >=
                  q.pending.front()->enqueue_ns +
                      static_cast<std::uint64_t>(wait_ns()))) {
        cut_batch(q);
      }
    }

    // Sleep until the earliest pending flush deadline or request
    // deadline (or a submit / drain / batch-completion wake; completions
    // can shorten flush deadlines to the linger, so run_batch also
    // notifies cv_). Flush deadlines live in the telemetry clock domain,
    // request deadlines in the monotonic domain — compare DURATIONS, not
    // absolute times.
    std::int64_t sleep_ns = std::numeric_limits<std::int64_t>::max();
    const std::int64_t tnow = static_cast<std::int64_t>(Telemetry::now_ns());
    const std::int64_t mnow = wire::mono_now_ns();
    for (const auto& [name, q] : queues_) {
      if (q.pending.empty()) continue;
      sleep_ns = std::min(
          sleep_ns, static_cast<std::int64_t>(q.pending.front()->enqueue_ns) +
                        wait_ns() - tnow);
      for (const auto& req : q.pending) {
        if (req->deadline_ns > 0) {
          sleep_ns = std::min(sleep_ns, req->deadline_ns - mnow);
        }
      }
    }
    if (sleep_ns == std::numeric_limits<std::int64_t>::max()) {
      cv_.wait(lock);
    } else if (sleep_ns > 0) {
      cv_.wait_for(lock, std::chrono::nanoseconds(sleep_ns));
    }
  }
}

void Server::cut_batch(ModelQueue& q) {
  const std::int64_t cap =
      std::min<std::int64_t>(opts_.max_batch, q.model->batch_capacity());
  const std::size_t n =
      std::min<std::size_t>(static_cast<std::size_t>(cap), q.pending.size());
  Batch batch;
  batch.model = q.model;
  batch.requests.reserve(n);
  const std::uint64_t now = Telemetry::now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    std::unique_ptr<Request> req = std::move(q.pending.front());
    q.pending.pop_front();
    telemetry::record_span("serve.queue_wait", q.model->spec().name,
                           req->enqueue_ns, now - req->enqueue_ns);
    batch.requests.push_back(std::move(req));
  }
  pending_total_ -= static_cast<std::int64_t>(n);
  ++in_flight_batches_;
  ++batches_;
  batched_requests_ += static_cast<std::int64_t>(n);
  Telemetry::count("serve.batches");
  Telemetry::count("serve.batch_occupancy", static_cast<double>(n));
  pool_->submit([this, b = std::make_shared<Batch>(std::move(batch))] {
    run_batch(std::move(*b));
  });
}

void Server::run_batch(Batch batch) {
  const std::string& name = batch.model->spec().name;
  if (drain_expired_.load(std::memory_order_relaxed)) {
    const std::size_t nabandoned = batch.requests.size();
    {
      std::lock_guard<std::mutex> lock(mu_);
      failed_ += static_cast<std::int64_t>(nabandoned);
    }
    for (auto& req : batch.requests) {
      Outcome o;
      o.status = RequestStatus::Failed;
      o.error = "drain timeout";
      req->done(std::move(o));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_batches_;
    }
    drain_cv_.notify_all();
    return;
  }
  SNNSKIP_SPAN("serve.execute", name);
  // Longest sequence first: at timestep t the requests that still have a
  // frame form the prefix [0, active(t)), so the engine steps only live
  // images and no zero frame is ever run. Each outcome stays at its own
  // request's index.
  std::stable_sort(batch.requests.begin(), batch.requests.end(),
                   [](const auto& a, const auto& b) {
                     return a->frames.size() > b->frames.size();
                   });
  const std::size_t nreq = batch.requests.size();
  std::vector<Outcome> outcomes(nreq);
  const auto fail_all = [&outcomes](const std::string& why) {
    for (Outcome& o : outcomes) {
      o.status = RequestStatus::Failed;
      o.value = Tensor();
      o.error = why;
    }
  };
  bool poisoned = false;
  try {
    LoadedModel::Lease lease = batch.model->lease();
    const infer::Plan& plan = *batch.model->plan();
    const std::int64_t n = plan.input_shape[0];
    const std::int64_t img_f = plan.input_shape[1] * plan.input_shape[2] *
                               plan.input_shape[3];
    const std::int64_t classes = plan.output_shape.numel() / n;

    Tensor x(plan.input_shape);
    Tensor out(plan.output_shape);
    for (Outcome& o : outcomes) o.value = Tensor(Shape{classes});
    const std::size_t tmax = batch.requests.front()->frames.size();
    std::size_t active = nreq;
    for (std::size_t t = 0; t < tmax; ++t) {
      while (batch.requests[active - 1]->frames.size() <= t) --active;
      {
        SNNSKIP_SPAN_AGG("serve.batch_assemble", name);
        for (std::size_t i = 0; i < active; ++i) {
          std::memcpy(x.data() + static_cast<std::int64_t>(i) * img_f,
                      batch.requests[i]->frames[t].data(),
                      static_cast<std::size_t>(img_f) * sizeof(float));
        }
      }
      lease->step(x, &out, static_cast<std::int64_t>(active));
      if (SNNSKIP_FAULT("serve.engine_nan")) {
        // Simulated corrupted-weights blowup: poison the step output the
        // same way an Inf/NaN weight would.
        for (std::int64_t i = 0; i < out.numel(); ++i) {
          out.data()[i] = std::numeric_limits<float>::quiet_NaN();
        }
      }
      for (std::size_t i = 0; i < active; ++i) {
        const float* row = out.data() + static_cast<std::int64_t>(i) * classes;
        float* a = outcomes[i].value.data();
        for (std::int64_t c = 0; c < classes; ++c) a[c] += row[c];
      }
    }

    // Non-finite outputs mean the model itself is unhealthy (weights or
    // state corrupt): fail the whole batch and quarantine the model.
    for (std::size_t i = 0; i < nreq && !poisoned; ++i) {
      const Tensor& v = outcomes[i].value;
      for (std::int64_t c = 0; c < classes; ++c) {
        if (!std::isfinite(v.data()[c])) {
          poisoned = true;
          break;
        }
      }
    }

    if (poisoned) {
      fail_all("non-finite engine output (model quarantined)");
    } else {
      const std::uint64_t done_ns = Telemetry::now_ns();
      for (std::size_t i = 0; i < nreq; ++i) {
        outcomes[i].status = RequestStatus::Ok;
        record_latency(
            static_cast<double>(done_ns - batch.requests[i]->enqueue_ns) /
            1e6);
      }
    }
  } catch (const std::exception& e) {
    fail_all(e.what());
  } catch (...) {
    fail_all("unknown execution failure");
  }

  // Quarantine BEFORE reporting the failures: a client that retries the
  // moment it sees the failure must already find the reloaded model.
  if (poisoned) quarantine_model(batch.model);

  // Account completions BEFORE invoking any callback: a client that
  // returns from result.get() must already see its request in stats().
  std::size_t ok = 0;
  for (const Outcome& o : outcomes) {
    if (o.status == RequestStatus::Ok) ++ok;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    completed_ += static_cast<std::int64_t>(ok);
    failed_ += static_cast<std::int64_t>(nreq - ok);
  }
  for (std::size_t i = 0; i < nreq; ++i) {
    batch.requests[i]->done(std::move(outcomes[i]));
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_batches_;
  }
  drain_cv_.notify_all();
  cv_.notify_one();  // a worker just went idle: deadlines may shorten
}

void Server::quarantine_model(const ModelHandle& model) {
  const std::string name = model->spec().name;
  // Serialize cycles so two poisoned batches of one model trigger one
  // reload; the identity check below makes the second a no-op.
  std::lock_guard<std::mutex> qlock(quarantine_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = queues_.find(name);
    if (it == queues_.end() || it->second.model != model) {
      return;  // already quarantined and swapped (or model was removed)
    }
  }
  Telemetry::count("serve.quarantined");
  SNNSKIP_LOG(Error) << "serve: non-finite output from model '" << name
                     << "'; quarantining (evict + reload)";
  registry_.evict(name);
  std::string err;
  ModelHandle fresh = registry_.try_load(model->spec(), &err);

  const bool reloaded = fresh != nullptr;
  std::vector<std::unique_ptr<Request>> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++quarantined_;
    auto it = queues_.find(name);
    if (it != queues_.end() && it->second.model == model) {
      if (fresh) {
        it->second.model = std::move(fresh);
      } else {
        // Reload failed too (checkpoint corrupt on disk): unregister the
        // model so submits report it unknown instead of serving poison.
        while (!it->second.pending.empty()) {
          orphans.push_back(std::move(it->second.pending.front()));
          it->second.pending.pop_front();
          --pending_total_;
        }
        failed_ += static_cast<std::int64_t>(orphans.size());
        queues_.erase(it);
      }
    }
  }
  if (!reloaded) {
    SNNSKIP_LOG(Error) << "serve: quarantine reload of '" << name
                       << "' failed (" << err << "); model unregistered";
    for (auto& req : orphans) {
      Outcome o;
      o.status = RequestStatus::Failed;
      o.error = "model quarantined and reload failed: " + err;
      req->done(std::move(o));
    }
    drain_cv_.notify_all();
  }
}

void Server::record_latency(double ms) {
  std::lock_guard<std::mutex> lock(lat_mu_);
  latency_ring_[lat_next_] = ms;
  if (++lat_next_ == latency_ring_.size()) {
    lat_next_ = 0;
    lat_full_ = true;
  }
}

ServeStats Server::stats() const {
  ServeStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.accepted = accepted_;
    s.rejected = rejected_;
    s.completed = completed_;
    s.failed = failed_;
    s.expired = expired_;
    s.quarantined = quarantined_;
    s.batches = batches_;
    s.mean_batch_occupancy =
        batches_ > 0 ? static_cast<double>(batched_requests_) /
                           static_cast<double>(batches_)
                     : 0.0;
    s.queue_depth = pending_total_;
    s.queue_depth_high_water = depth_high_water_;
  }
  std::vector<double> lat;
  {
    std::lock_guard<std::mutex> lock(lat_mu_);
    lat.assign(latency_ring_.begin(),
               lat_full_ ? latency_ring_.end()
                         : latency_ring_.begin() +
                               static_cast<std::ptrdiff_t>(lat_next_));
  }
  if (!lat.empty()) {
    auto pct = [&lat](double p) {
      const std::size_t k = static_cast<std::size_t>(
          p * static_cast<double>(lat.size() - 1) + 0.5);
      std::nth_element(lat.begin(),
                       lat.begin() + static_cast<std::ptrdiff_t>(k),
                       lat.end());
      return lat[k];
    };
    s.p50_ms = pct(0.50);
    s.p99_ms = pct(0.99);
  }
  return s;
}

}  // namespace snnskip::serve
