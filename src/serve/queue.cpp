#include "serve/queue.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "core/error.h"

namespace igc::serve {

namespace {

int default_watermark(const RequestQueue::Options& opts) {
  if (opts.shed_watermark >= 0) {
    return std::min(opts.shed_watermark, opts.max_depth);
  }
  return std::max(1, (opts.max_depth * 3 + 3) / 4);
}

}  // namespace

RequestQueue::RequestQueue(Options opts)
    : opts_(opts), shed_watermark_(default_watermark(opts)) {
  if (opts_.num_tenants < 1) {
    throw Error("RequestQueue: num_tenants must be >= 1");
  }
  if (opts_.max_depth < 1) throw Error("RequestQueue: max_depth must be >= 1");
  if (opts_.max_batch_size < 1) {
    throw Error("RequestQueue: max_batch_size must be >= 1");
  }
  if (!(opts_.max_wait_ms >= 0.0)) {
    throw Error("RequestQueue: max_wait_ms must be >= 0");
  }
  lanes_.resize(static_cast<size_t>(opts_.num_tenants));
}

Admission RequestQueue::offer(RequestPtr& req, double now_ms) {
  if (req == nullptr || req->tenant < 0 ||
      req->tenant >= opts_.num_tenants) {
    return Admission::kRejectedUnknownTenant;
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (closed_) return Admission::kRejectedShutdown;
  if (depth_ >= opts_.max_depth) return Admission::kRejectedQueueFull;
  if (depth_ >= shed_watermark_) return Admission::kShedWatermark;
  req->enqueue_ms = now_ms;
  ++depth_;
  if (req->timeline != nullptr) {
    // Stamped here, under the queue mutex, because ownership transfers to
    // the queue on this push — the depth recorded is the depth the request
    // itself contributed to.
    obs::RequestEvent e;
    e.kind = obs::RequestEventKind::kAdmit;
    e.t_ms = now_ms;
    e.queue_depth = depth_;
    req->timeline->add(std::move(e));
  }
  lanes_[static_cast<size_t>(req->tenant)].push_back(std::move(req));
  cv_.notify_one();
  return Admission::kAdmitted;
}

void RequestQueue::close() {
  std::lock_guard<std::mutex> lk(mu_);
  closed_ = true;
  cv_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return closed_;
}

int RequestQueue::depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return depth_;
}

std::optional<Batch> RequestQueue::try_form_batch(double now_ms) {
  std::lock_guard<std::mutex> lk(mu_);
  return try_form_batch_locked(now_ms);
}

std::optional<Batch> RequestQueue::try_form_batch_locked(double now_ms) {
  const int n = opts_.num_tenants;
  auto lane_expired = [&](const std::deque<RequestPtr>& lane) {
    return !lane.empty() &&
           (closed_ ||
            now_ms - lane.front()->enqueue_ms >= opts_.max_wait_ms);
  };

  // Two round-robin scans from the cursor: full lanes win over merely
  // expired ones, so a tenant at its size trigger never waits behind a
  // timeout flush of a lighter tenant.
  int chosen = -1;
  for (int pass = 0; pass < 2 && chosen < 0; ++pass) {
    for (int k = 0; k < n; ++k) {
      const int t = (rr_cursor_ + k) % n;
      const auto& lane = lanes_[static_cast<size_t>(t)];
      const bool ready =
          pass == 0
              ? static_cast<int>(lane.size()) >= opts_.max_batch_size
              : lane_expired(lane);
      if (ready) {
        chosen = t;
        break;
      }
    }
  }
  if (chosen < 0) return std::nullopt;

  Batch b;
  b.tenant = chosen;
  b.formed_ms = now_ms;
  auto& lane = lanes_[static_cast<size_t>(chosen)];
  const int take =
      std::min<int>(opts_.max_batch_size, static_cast<int>(lane.size()));
  b.requests.reserve(static_cast<size_t>(take));
  for (int i = 0; i < take; ++i) {
    b.requests.push_back(std::move(lane.front()));
    lane.pop_front();
  }
  depth_ -= take;
  rr_cursor_ = (chosen + 1) % n;
  return b;
}

double RequestQueue::next_deadline_ms() const {
  std::lock_guard<std::mutex> lk(mu_);
  return next_deadline_ms_locked();
}

double RequestQueue::next_deadline_ms_locked() const {
  double deadline = std::numeric_limits<double>::infinity();
  for (const auto& lane : lanes_) {
    if (lane.empty()) continue;
    deadline = std::min(deadline, lane.front()->enqueue_ms + opts_.max_wait_ms);
  }
  return deadline;
}

std::optional<Batch> RequestQueue::pop_batch(
    const std::function<double()>& now_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (auto b = try_form_batch_locked(now_ms())) {
      // Pass the watch over what is left to another waiter: this caller is
      // about to run its batch, and offer() wakes only one waiter, which
      // may have been this one.
      if (depth_ > 0) cv_.notify_one();
      return b;
    }
    if (closed_ && depth_ == 0) return std::nullopt;
    const double deadline = next_deadline_ms_locked();
    if (std::isinf(deadline)) {
      cv_.wait(lk);
    } else {
      // Sleep until the earliest timeout trigger. The wait duration is the
      // engine-clock delta converted to a real-time bound; a scripted test
      // clock turns this into a bounded retry loop rather than a hang.
      const double wait = std::max(0.1, deadline - now_ms());
      cv_.wait_for(lk, std::chrono::duration<double, std::milli>(wait));
    }
  }
}

}  // namespace igc::serve
