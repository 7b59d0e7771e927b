#include "serve/engine.h"

#include <chrono>
#include <utility>

#include "core/error.h"

namespace igc::serve {

namespace {

std::function<double()> default_clock() {
  const auto t0 = std::chrono::steady_clock::now();
  return [t0] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
}

}  // namespace

std::string EngineHealth::json() const {
  std::string out = "{\"healthy\": ";
  out += healthy() ? "true" : "false";
  out += ", \"serving\": ";
  out += serving ? "true" : "false";
  out += ", \"scheduler_alive\": ";
  out += scheduler_alive ? "true" : "false";
  out += ", \"queue_open\": ";
  out += queue_open ? "true" : "false";
  out += ", \"workers\": " + std::to_string(workers) + "}";
  return out;
}

ServingEngine::ServingEngine(EngineOptions opts) : opts_(std::move(opts)) {
  if (opts_.num_workers < 1) {
    throw Error("ServingEngine: num_workers must be >= 1");
  }
  if (opts_.sim_pacing < 0.0) {
    throw Error("ServingEngine: sim_pacing must be >= 0");
  }
  if (!(opts_.trace.head_sample_rate >= 0.0 &&
        opts_.trace.head_sample_rate <= 1.0)) {
    throw Error("ServingEngine: trace.head_sample_rate must be in [0, 1]");
  }
  if (!opts_.clock_ms) opts_.clock_ms = default_clock();
  if (opts_.trace.enabled) {
    obs::FlightRecorder::Options fopts;
    fopts.num_shards = opts_.num_workers;
    fopts.keep_slowest = opts_.trace.keep_slowest;
    fopts.keep_errors = opts_.trace.keep_errors;
    fopts.keep_head = opts_.trace.keep_head;
    fopts.head_sample_rate = opts_.trace.head_sample_rate;
    flight_ = std::make_unique<obs::FlightRecorder>(fopts);
    exemplars_ = std::make_unique<obs::ExemplarStore>();
  }
  auto& reg = opts_.registry != nullptr ? *opts_.registry
                                        : obs::MetricsRegistry::global();
  m_submitted_ = &reg.counter("serve.submitted");
  m_admitted_ = &reg.counter("serve.admitted");
  m_rejected_ = &reg.counter("serve.rejected");
  m_shed_ = &reg.counter("serve.shed");
  m_completed_ = &reg.counter("serve.completed");
  m_batches_ = &reg.counter("serve.batches");
  m_queue_depth_ = &reg.gauge("serve.queue_depth");
  m_queue_depth_peak_ = &reg.gauge("serve.queue_depth_peak");
  m_batch_size_ = &reg.histogram("serve.batch_size");
  m_queue_wait_ = &reg.histogram("serve.queue_wait_ms");
  m_service_ = &reg.histogram("serve.service_ms");
  m_e2e_ = &reg.histogram("serve.e2e_ms");
}

ServingEngine::~ServingEngine() { stop(); }

int ServingEngine::add_tenant(TenantSpec spec) {
  if (spec.model == nullptr) throw Error("ServingEngine: tenant needs a model");
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (started_) throw Error("ServingEngine: add_tenant() after start()");
  tenants_.push_back(std::move(spec));
  completed_per_tenant_.push_back(std::make_unique<std::atomic<int64_t>>(0));
  return static_cast<int>(tenants_.size()) - 1;
}

const std::string& ServingEngine::tenant_name(int tenant) const {
  return tenants_.at(static_cast<size_t>(tenant)).name;
}

void ServingEngine::start() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (started_) return;
  if (tenants_.empty()) throw Error("ServingEngine: start() with no tenants");
  if (opts_.page_pool == nullptr) {
    opts_.page_pool = std::make_shared<PagePool>();
  }
  RequestQueue::Options qopts = opts_.queue;
  qopts.num_tenants = static_cast<int>(tenants_.size());
  queue_ = std::make_unique<RequestQueue>(qopts);
  // Per-tenant breakouts, resolved now that the tenant set is final. The
  // release store on running_ below publishes them to submitters.
  auto& reg = opts_.registry != nullptr ? *opts_.registry
                                        : obs::MetricsRegistry::global();
  tenant_metrics_.clear();
  tenant_metrics_.reserve(tenants_.size());
  for (const TenantSpec& t : tenants_) {
    const std::string prefix = "serve.tenant." + t.name + ".";
    TenantInstruments ti;
    ti.submitted = &reg.counter(prefix + "submitted");
    ti.completed = &reg.counter(prefix + "completed");
    ti.failed = &reg.counter(prefix + "failed");
    ti.shed = &reg.counter(prefix + "shed");
    ti.rejected = &reg.counter(prefix + "rejected");
    ti.e2e = &reg.histogram(prefix + "e2e_ms");
    tenant_metrics_.push_back(ti);
  }
  started_ = true;
  running_.store(true, std::memory_order_release);
  // Liveness flags are raised before the threads spawn (and lowered by the
  // threads themselves on exit), so a health probe racing start() never
  // sees a healthy engine with a "dead" scheduler.
  scheduler_alive_.store(true, std::memory_order_release);
  workers_alive_.store(opts_.num_workers, std::memory_order_release);
  scheduler_ = std::thread([this] { scheduler_main(); });
  workers_.reserve(static_cast<size_t>(opts_.num_workers));
  for (int w = 0; w < opts_.num_workers; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

void ServingEngine::record_refusal(Admission a, int tenant) {
  // Per-tenant breakouts exist only once start() published them; the
  // index is guarded because refusals also fire pre-start and for unknown
  // tenant ids.
  TenantInstruments* ti =
      tenant >= 0 && static_cast<size_t>(tenant) < tenant_metrics_.size()
          ? &tenant_metrics_[static_cast<size_t>(tenant)]
          : nullptr;
  switch (a) {
    case Admission::kShedWatermark:
      shed_.fetch_add(1, std::memory_order_relaxed);
      m_shed_->add();
      if (ti != nullptr) ti->shed->add();
      break;
    case Admission::kRejectedQueueFull:
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
      m_rejected_->add();
      if (ti != nullptr) ti->rejected->add();
      break;
    case Admission::kRejectedShutdown:
      rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
      m_rejected_->add();
      if (ti != nullptr) ti->rejected->add();
      break;
    case Admission::kRejectedUnknownTenant:
      rejected_unknown_.fetch_add(1, std::memory_order_relaxed);
      m_rejected_->add();
      break;
    case Admission::kAdmitted:
      break;
  }
}

SubmitResult ServingEngine::submit(int tenant, uint64_t input_seed) {
  SubmitResult out;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  m_submitted_->add();
  if (!running_.load(std::memory_order_acquire)) {
    // Pre-start / post-stop: tenant_metrics_ may not be published yet, so
    // shutdown refusals carry no per-tenant attribution (tenant = -1). They
    // are likewise not traced — there is no serving pipeline to follow.
    out.admission = Admission::kRejectedShutdown;
    record_refusal(out.admission, /*tenant=*/-1);
    return out;
  }
  const bool known_tenant =
      tenant >= 0 && static_cast<size_t>(tenant) < tenants_.size();
  if (known_tenant) tenant_metrics_[static_cast<size_t>(tenant)].submitted->add();
  auto req = std::make_unique<Request>();
  req->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  req->tenant = tenant;
  req->input_seed = input_seed;
  if (flight_ != nullptr) {
    auto tl = std::make_unique<obs::RequestTimeline>();
    tl->trace_id = req->id;
    tl->tenant = tenant;
    if (known_tenant) {
      tl->tenant_name = tenants_[static_cast<size_t>(tenant)].name;
    }
    obs::RequestEvent e;
    e.kind = obs::RequestEventKind::kSubmit;
    e.t_ms = opts_.clock_ms();
    tl->add(std::move(e));
    req->timeline = std::move(tl);
  }
  std::future<RequestOutcome> fut = req->done.get_future();

  const Admission a = queue_->offer(req, opts_.clock_ms());
  out.admission = a;
  if (a != Admission::kAdmitted) {
    record_refusal(a, tenant);
    if (req != nullptr && req->timeline != nullptr) {
      // Refused requests always reach the flight recorder: the tail-
      // sampling policy retains every one of them.
      obs::RequestEvent e;
      e.kind = a == Admission::kShedWatermark
                   ? obs::RequestEventKind::kShed
                   : obs::RequestEventKind::kReject;
      e.t_ms = opts_.clock_ms();
      e.queue_depth = queue_->depth();
      e.detail = admission_reason(a);
      req->timeline->add(std::move(e));
      req->timeline->status = a == Admission::kShedWatermark
                                  ? obs::RequestStatus::kShed
                                  : obs::RequestStatus::kRejected;
      flight_->offer(std::move(*req->timeline), /*shard_hint=*/-1);
    }
    return out;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  m_admitted_->add();
  const int depth = queue_->depth();
  m_queue_depth_->set(depth);
  m_queue_depth_peak_->update_max(depth);
  int peak = depth_peak_.load(std::memory_order_relaxed);
  while (depth > peak && !depth_peak_.compare_exchange_weak(
                             peak, depth, std::memory_order_relaxed)) {
  }
  out.outcome = std::move(fut);
  return out;
}

void ServingEngine::scheduler_main() {
  for (;;) {
    std::optional<Batch> b = queue_->pop_batch(opts_.clock_ms);
    if (!b.has_value()) break;  // closed and drained
    const double now = opts_.clock_ms();
    const int depth_after = queue_->depth();
    b->id = batches_formed_.fetch_add(1, std::memory_order_relaxed);
    for (RequestPtr& r : b->requests) {
      // schedule_ms (and queue-wait) are stamped here, at batch formation;
      // start_ms follows once a worker picks the batch up.
      m_queue_wait_->observe(now - r->enqueue_ms);
      if (r->timeline != nullptr) {
        // The scheduler owns the batch (and its requests) here, so the
        // append is unsynchronized by design.
        obs::RequestEvent e;
        e.kind = obs::RequestEventKind::kBatchFormed;
        e.t_ms = now;
        e.batch_id = b->id;
        e.batch_size = b->size();
        e.queue_depth = depth_after;
        r->timeline->add(std::move(e));
      }
    }
    b->formed_ms = now;
    m_batches_->add();
    m_batch_size_->observe(static_cast<double>(b->size()));
    m_queue_depth_->set(depth_after);

    std::unique_lock<std::mutex> lk(batch_mu_);
    batch_cv_.wait(lk, [this] {
      return static_cast<int>(batches_.size()) < opts_.num_workers;
    });
    batches_.push_back(std::move(*b));
    batch_cv_.notify_all();
  }
  std::lock_guard<std::mutex> lk(batch_mu_);
  scheduler_done_ = true;
  scheduler_alive_.store(false, std::memory_order_release);
  batch_cv_.notify_all();
}

void ServingEngine::worker_main(int worker_id) {
  // One private ServingContext per tenant, built lazily on this worker's
  // first batch of that tenant: the plan-backed page table is reused across
  // every subsequent request the worker serves for the tenant, while the
  // physical pages behind it are borrowed from the engine-wide pool per
  // request — steady-state serving performs no heap allocations for node
  // outputs and shares pages across the whole worker pool.
  std::vector<std::unique_ptr<ServingContext>> contexts(tenants_.size());
  for (;;) {
    Batch batch;
    {
      std::unique_lock<std::mutex> lk(batch_mu_);
      batch_cv_.wait(lk, [this] {
        return !batches_.empty() || scheduler_done_;
      });
      if (batches_.empty()) {
        // Scheduler done and queue drained: this worker is exiting.
        workers_alive_.fetch_sub(1, std::memory_order_acq_rel);
        return;
      }
      batch = std::move(batches_.front());
      batches_.pop_front();
      batch_cv_.notify_all();  // wake the scheduler's bounded-queue wait
    }
    execute_batch(std::move(batch), contexts, worker_id);
  }
}

void ServingEngine::execute_batch(
    Batch batch, std::vector<std::unique_ptr<ServingContext>>& contexts,
    int worker_id) {
  const TenantSpec& tenant = tenants_[static_cast<size_t>(batch.tenant)];
  TenantInstruments& ti = tenant_metrics_[static_cast<size_t>(batch.tenant)];
  auto& ctx = contexts[static_cast<size_t>(batch.tenant)];
  // The ShapeVariant binding every request in this batch runs with.
  const std::string binding =
      tenant.run.batch == 0 && tenant.run.input_hw == 0
          ? "seed"
          : "b" + std::to_string(tenant.run.batch) + " hw" +
                std::to_string(tenant.run.input_hw);
  for (RequestPtr& req : batch.requests) {
    RequestOutcome outcome;
    outcome.id = req->id;
    outcome.tenant = req->tenant;
    outcome.enqueue_ms = req->enqueue_ms;
    outcome.schedule_ms = batch.formed_ms;
    outcome.batch_size = batch.size();
    outcome.start_ms = opts_.clock_ms();
    if (req->timeline != nullptr) {
      obs::RequestEvent e;
      e.kind = obs::RequestEventKind::kWorkerStart;
      e.t_ms = outcome.start_ms;
      e.worker_id = worker_id;
      e.batch_id = batch.id;
      e.batch_size = batch.size();
      req->timeline->add(std::move(e));
    }
    try {
      if (ctx == nullptr) {
        // Page table is private to this worker; the physical pages behind it
        // come from the engine-wide pool and are returned after every
        // request, so workers and tenants time-share one page set. Built
        // here so a binding the model cannot serve fails the request.
        ctx = tenant.model->make_serving_context(
            tenant.run.batch, tenant.run.input_hw, opts_.page_pool);
      }
      RunOptions ropts = tenant.run;
      ropts.input_seed = req->input_seed;
      ropts.serving_context = ctx.get();
      const RunResult r = tenant.model->run(ropts);
      outcome.sim_latency_ms = r.latency_ms;
      if (req->timeline != nullptr) {
        obs::RequestEvent e;
        e.kind = obs::RequestEventKind::kRun;
        e.t_ms = opts_.clock_ms();
        e.worker_id = worker_id;
        e.batch_id = batch.id;
        e.sim_latency_ms = r.latency_ms;
        e.detail = binding;
        req->timeline->add(std::move(e));
      }
      if (opts_.sim_pacing > 0.0) {
        // Device-bound service stage: block for the scaled simulated time.
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            r.latency_ms * opts_.sim_pacing));
      }
      outcome.finish_ms = opts_.clock_ms();
      m_service_->observe(outcome.service_ms());
      m_e2e_->observe(outcome.e2e_ms());
      m_completed_->add();
      ti.completed->add();
      ti.e2e->observe(outcome.e2e_ms());
      completed_.fetch_add(1, std::memory_order_relaxed);
      completed_per_tenant_[static_cast<size_t>(req->tenant)]->fetch_add(
          1, std::memory_order_relaxed);
      if (req->timeline != nullptr) {
        obs::RequestEvent e;
        e.kind = obs::RequestEventKind::kFinish;
        e.t_ms = outcome.finish_ms;
        e.worker_id = worker_id;
        req->timeline->add(std::move(e));
        req->timeline->status = obs::RequestStatus::kCompleted;
        exemplars_->record("serve.e2e_ms", outcome.e2e_ms(), req->id);
        exemplars_->record("serve.queue_wait_ms", outcome.queue_wait_ms(),
                           req->id);
        flight_->offer(std::move(*req->timeline), worker_id);
      }
      req->done.set_value(outcome);
    } catch (...) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      ti.failed->add();
      std::exception_ptr err = std::current_exception();
      if (req->timeline != nullptr) {
        std::string what = "unknown error";
        try {
          std::rethrow_exception(err);
        } catch (const std::exception& e) {
          what = e.what();
        } catch (...) {
        }
        obs::RequestEvent e;
        e.kind = obs::RequestEventKind::kFinish;
        e.t_ms = opts_.clock_ms();
        e.worker_id = worker_id;
        e.detail = what;
        req->timeline->add(std::move(e));
        req->timeline->status = obs::RequestStatus::kFailed;
        // Failed requests are always retained (tail-sampling policy).
        flight_->offer(std::move(*req->timeline), worker_id);
      }
      req->done.set_exception(err);
    }
  }
}

void ServingEngine::stop() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (!started_ || stopped_) return;
  stopped_ = true;
  running_.store(false, std::memory_order_release);
  queue_->close();  // scheduler drains remaining lanes, then signals done
  scheduler_.join();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  m_queue_depth_->set(0);
}

EngineHealth ServingEngine::health() const {
  EngineHealth h;
  h.serving = running_.load(std::memory_order_acquire);
  h.scheduler_alive = scheduler_alive_.load(std::memory_order_acquire);
  h.workers = workers_alive_.load(std::memory_order_acquire);
  {
    // queue_ is created under lifecycle_mu_ in start(); take it so a probe
    // racing start() reads a fully constructed queue or none at all.
    std::lock_guard<std::mutex> lk(lifecycle_mu_);
    h.queue_open = queue_ != nullptr && !queue_->closed();
  }
  return h;
}

EngineStats ServingEngine::stats() const {
  EngineStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  s.rejected_unknown_tenant = rejected_unknown_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.batches = batches_formed_.load(std::memory_order_relaxed);
  s.queue_depth_peak = depth_peak_.load(std::memory_order_relaxed);
  s.completed_per_tenant.reserve(completed_per_tenant_.size());
  for (const auto& c : completed_per_tenant_) {
    s.completed_per_tenant.push_back(c->load(std::memory_order_relaxed));
  }
  return s;
}

}  // namespace igc::serve
