#include "sched/live.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"

namespace hpm::sched {

LiveCluster::LiveCluster(int nodes, RegisterTypes register_types)
    : register_types_(std::move(register_types)), nodes_(static_cast<std::size_t>(nodes)) {
  if (nodes < 1) throw Error("LiveCluster needs at least one node");
  if (!register_types_) throw Error("LiveCluster needs a register_types callback");
}

LiveCluster::~LiveCluster() {
  {
    // Under mu_: a worker between its wait predicate and blocking holds
    // mu_, so an unlocked store could land in that gap and lose the notify.
    std::lock_guard lk(mu_);
    shutdown_.store(true);
  }
  cv_.notify_all();
  for (Node& node : nodes_) {
    if (node.worker.joinable()) node.worker.join();
  }
  if (balancer_.joinable()) balancer_.join();
}

int LiveCluster::submit(Program program, int node) {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) {
    throw Error("submit: unknown node " + std::to_string(node));
  }
  std::unique_ptr<Job> job;
  int id;
  {
    std::lock_guard lk(mu_);
    id = static_cast<int>(jobs_total_++);
    reports_.push_back(JobReport{});
    running_ctx_.push_back(nullptr);
    pending_target_.push_back(-1);
    job_location_.push_back(node);
    job = std::make_unique<Job>();
    job->id = id;
    job->program = std::move(program);
    nodes_[node].queue.push_back(std::move(job));
  }
  cv_.notify_all();
  return id;
}

void LiveCluster::start() {
  std::lock_guard lk(mu_);
  if (started_) return;
  started_ = true;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].worker = std::thread([this, i] { worker_loop(static_cast<int>(i)); });
  }
}

void LiveCluster::enqueue(int node_index, std::unique_ptr<Job> job) {
  {
    std::lock_guard lk(mu_);
    job_location_[job->id] = node_index;
    nodes_[node_index].queue.push_back(std::move(job));
  }
  cv_.notify_all();
}

void LiveCluster::migrate(int job_id, int to_node) {
  if (to_node < 0 || to_node >= static_cast<int>(nodes_.size())) {
    throw Error("migrate: unknown node " + std::to_string(to_node));
  }
  std::lock_guard lk(mu_);
  if (job_id < 0 || job_id >= static_cast<int>(jobs_total_)) {
    throw Error("migrate: unknown job " + std::to_string(job_id));
  }
  if (reports_[job_id].done) return;
  if (running_ctx_[job_id] != nullptr) {
    // Live: deliver the request; the job collects at its next poll.
    pending_target_[job_id] = to_node;
    running_ctx_[job_id]->request_migration();
    return;
  }
  // Queued (or in transit): requeue directly — no state to collect yet.
  const int from = job_location_[job_id];
  if (from < 0 || from == to_node) {
    pending_target_[job_id] = to_node;  // in transit: applied on landing
    return;
  }
  auto& queue = nodes_[from].queue;
  const auto it = std::find_if(queue.begin(), queue.end(),
                               [job_id](const auto& j) { return j->id == job_id; });
  if (it == queue.end()) {
    // Raced with a worker pop: leave the order pending; the worker's
    // pre-run check (or the job's next poll) will honor it.
    pending_target_[job_id] = to_node;
    return;
  }
  std::unique_ptr<Job> job = std::move(*it);
  queue.erase(it);
  job_location_[job_id] = to_node;
  nodes_[to_node].queue.push_back(std::move(job));
  cv_.notify_all();
}

void LiveCluster::worker_loop(int node_index) {
  for (;;) {
    std::unique_ptr<Job> job;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this, node_index] {
        return shutdown_.load() || !nodes_[node_index].queue.empty();
      });
      if (shutdown_.load()) return;
      job = std::move(nodes_[node_index].queue.front());
      nodes_[node_index].queue.pop_front();
    }

    ti::TypeTable types;
    register_types_(types);
    mig::MigContext ctx(types);
    {
      std::lock_guard lk(mu_);
      running_ctx_[job->id] = &ctx;
      job_location_[job->id] = node_index;
      if (pending_target_[job->id] >= 0 && pending_target_[job->id] != node_index) {
        ctx.request_migration();  // an order arrived while queued/in transit
      } else {
        pending_target_[job->id] = -1;
      }
    }
    try {
      if (!job->resume_stream.empty()) {
        Bytes stream = std::move(job->resume_stream);
        job->resume_stream.clear();
        ctx.begin_restore(std::move(stream));
      }
      job->program(ctx);
      std::lock_guard lk(mu_);
      running_ctx_[job->id] = nullptr;
      job->report.finished_on = node_index;
      job->report.done = true;
      reports_[job->id] = job->report;
      ++jobs_done_;
      cv_.notify_all();
    } catch (const mig::MigrationExit&) {
      int target;
      {
        std::lock_guard lk(mu_);
        running_ctx_[job->id] = nullptr;
        target = pending_target_[job->id];
        pending_target_[job->id] = -1;
        job_location_[job->id] = -1;
      }
      if (target < 0) target = node_index;  // defensive: land back home
      job->report.migrations += 1;
      job->report.moved_bytes += ctx.stream().size();
      job->resume_stream = ctx.stream();
      enqueue(target, std::move(job));
    } catch (...) {
      // Application failure: record and count the job as finished so
      // wait_all() cannot hang; `done` stays false to signal the failure.
      std::lock_guard lk(mu_);
      running_ctx_[job->id] = nullptr;
      job->report.finished_on = node_index;
      job->report.done = false;
      reports_[job->id] = job->report;
      ++jobs_done_;
      cv_.notify_all();
    }
  }
}

void LiveCluster::enable_auto_balance(double period_seconds) {
  if (balancer_.joinable()) return;
  balancer_ = std::thread([this, period_seconds] { balancer_loop(period_seconds); });
}

void LiveCluster::balancer_loop(double period_seconds) {
  while (!shutdown_.load()) {
    std::this_thread::sleep_for(std::chrono::duration<double>(period_seconds));
    int job_to_move = -1;
    int to_node = -1;
    {
      std::lock_guard lk(mu_);
      if (jobs_done_ == jobs_total_) continue;
      // Load = queued + running jobs per node.
      std::vector<int> load(nodes_.size(), 0);
      for (std::size_t n = 0; n < nodes_.size(); ++n) {
        load[n] = static_cast<int>(nodes_[n].queue.size());
      }
      for (std::size_t j = 0; j < jobs_total_; ++j) {
        if (running_ctx_[j] != nullptr && job_location_[j] >= 0) ++load[job_location_[j]];
      }
      std::size_t max_i = 0;
      std::size_t min_i = 0;
      for (std::size_t n = 1; n < load.size(); ++n) {
        if (load[n] > load[max_i]) max_i = n;
        if (load[n] < load[min_i]) min_i = n;
      }
      if (load[max_i] - load[min_i] < 2) continue;
      const int from = static_cast<int>(max_i);
      to_node = static_cast<int>(min_i);
      // Prefer a queued job (free move); otherwise order a live one.
      if (!nodes_[from].queue.empty()) {
        job_to_move = nodes_[from].queue.front()->id;
      } else {
        for (std::size_t j = 0; j < jobs_total_; ++j) {
          if (running_ctx_[j] != nullptr && job_location_[j] == from &&
              pending_target_[j] < 0) {
            job_to_move = static_cast<int>(j);
            break;
          }
        }
      }
    }
    if (job_to_move >= 0) migrate(job_to_move, to_node);
  }
}

std::vector<LiveCluster::JobReport> LiveCluster::wait_all() {
  std::unique_lock lk(mu_);
  cv_.wait(lk, [this] { return jobs_done_ == jobs_total_; });
  return reports_;
}

}  // namespace hpm::sched
