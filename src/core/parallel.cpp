#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace dcn {
namespace {
// Atomic: read by hardware_threads() inside parallel regions and from pool
// workers while the main thread may call set_num_threads.
std::atomic<int> g_num_threads{0};  // 0 = backend default

// Shared compute pool for the tensor engine. Created lazily at the first
// parallel kernel launch and grown (replaced) when a larger thread count is
// requested; callers hold a shared_ptr so a pool in use is never destroyed
// under them. Every thread running a task — pool worker or caller — sets
// tls_compute_worker so nested kernel launches run inline.
thread_local bool tls_compute_worker = false;

std::mutex g_compute_pool_mutex;
std::shared_ptr<ThreadPool> g_compute_pool;

std::shared_ptr<ThreadPool> acquire_compute_pool(int threads) {
  std::lock_guard<std::mutex> lock(g_compute_pool_mutex);
  if (!g_compute_pool || g_compute_pool->size() < threads) {
    g_compute_pool = std::make_shared<ThreadPool>(threads);
  }
  return g_compute_pool;
}
}  // namespace

int hardware_threads() {
#ifdef _OPENMP
  const int n = g_num_threads.load(std::memory_order_relaxed);
  if (n > 0) return n;
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void set_num_threads(int n) {
  g_num_threads.store(n < 1 ? 0 : n, std::memory_order_relaxed);
}

void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& fn,
                  std::int64_t grain) {
  if (begin >= end) return;
  const std::int64_t n = end - begin;
#ifdef _OPENMP
  if (n >= grain && hardware_threads() > 1) {
#pragma omp parallel for num_threads(hardware_threads()) schedule(static)
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
#else
  (void)grain;
#endif
  for (std::int64_t i = begin; i < end; ++i) fn(i);
}

void parallel_for_chunked(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn,
    std::int64_t grain) {
  if (begin >= end) return;
  const std::int64_t n = end - begin;
  const int threads = hardware_threads();
#ifdef _OPENMP
  if (n >= grain && threads > 1) {
    const std::int64_t chunk = std::max<std::int64_t>(1, (n + threads - 1) / threads);
#pragma omp parallel num_threads(threads)
    {
      const std::int64_t t = omp_get_thread_num();
      const std::int64_t lo = begin + t * chunk;
      const std::int64_t hi = std::min(end, lo + chunk);
      if (lo < hi) fn(lo, hi);
    }
    return;
  }
#else
  (void)grain;
  (void)threads;
#endif
  fn(begin, end);
}

int compute_threads() {
  const int n = g_num_threads.load(std::memory_order_relaxed);
  if (n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

bool in_compute_worker() { return tls_compute_worker; }

void run_compute_tasks(int tasks, const std::function<void(int)>& fn) {
  if (tasks <= 0) return;
  const int threads = compute_threads();
  if (tasks == 1 || threads == 1 || tls_compute_worker) {
    for (int t = 0; t < tasks; ++t) fn(t);
    return;
  }
  // The caller and threads - 1 pool helpers claim task indices from one
  // counter, so a call keeps exactly `threads` threads busy however many
  // tasks it has. Every participant, the caller included, is flagged as a
  // worker while it drains, so nested kernel launches inside fn run inline.
  std::atomic<int> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  int first_error_task = tasks;
  const auto drain = [&] {
    struct Flag {
      Flag() { tls_compute_worker = true; }
      ~Flag() { tls_compute_worker = false; }
    } flag;
    for (int t = next.fetch_add(1, std::memory_order_relaxed); t < tasks;
         t = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(t);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (t < first_error_task) {
          first_error_task = t;
          first_error = std::current_exception();
        }
      }
    }
  };
  const auto pool = acquire_compute_pool(threads);
  const int helpers = std::min(tasks, threads) - 1;
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>(helpers));
  for (int h = 0; h < helpers; ++h) futures.push_back(pool->submit(drain));
  drain();
  for (auto& f : futures) f.get();
  if (first_error) std::rethrow_exception(first_error);
}

std::pair<std::int64_t, std::int64_t> chunk_range(std::int64_t n,
                                                  std::int64_t chunks,
                                                  std::int64_t c) {
  const std::int64_t base = n / chunks;
  const std::int64_t rem = n % chunks;
  const std::int64_t lo = c * base + std::min(c, rem);
  return {lo, lo + base + (c < rem ? 1 : 0)};
}

void for_each_sample(std::int64_t batch,
                     const std::function<void(std::int64_t)>& fn) {
  run_compute_tasks(static_cast<int>(batch), [&](int n) { fn(n); });
}

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // exceptions are captured into the task's future
  }
}

}  // namespace dcn
