// Shared-memory parallel loop helpers and a task thread pool.
//
// All data-parallel loops in the library funnel through parallel_for so the
// threading backend (OpenMP when available, serial otherwise) is chosen in
// one place. Grain-size control avoids spawning parallel regions for tiny
// trip counts, which matters for the many small tensors in SPP branches.
//
// ThreadPool is the coarse-grained counterpart: long-lived std::thread
// workers executing independent tasks (one task = one NAS trial). Pool
// tasks may themselves call parallel_for; keep the product of pool size and
// set_num_threads at or below the machine's core count to avoid
// oversubscription.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace dcn {

/// Number of worker threads the backend will use (1 when OpenMP is absent).
/// Safe to call from any thread, including inside pool tasks.
int hardware_threads();

/// Set the number of threads used by subsequent parallel_for calls.
/// Values < 1 reset to the hardware default. Safe to call concurrently with
/// hardware_threads() (the setting is a single atomic), though in-flight
/// parallel regions keep the count they started with.
void set_num_threads(int n);

/// Run fn(i) for i in [begin, end). Executes in parallel when the trip count
/// is at least `grain`, serially otherwise. fn must be safe to invoke
/// concurrently for distinct i.
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& fn,
                  std::int64_t grain = 64);

/// Chunked variant: fn(chunk_begin, chunk_end) over a partition of
/// [begin, end). Lower overhead than the per-index form for tight loops.
void parallel_for_chunked(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn,
    std::int64_t grain = 1024);

/// Number of threads the tensor-engine compute pool targets: the
/// set_num_threads() override when present, else the hardware concurrency.
/// Unlike hardware_threads() this does not require OpenMP, so the
/// std::thread compute pool scales even in TSan builds that avoid OpenMP.
int compute_threads();

/// True while the calling thread runs a run_compute_tasks task, on a pool
/// worker or on the calling thread itself. Parallel kernels use this to run
/// nested parallel regions inline instead of re-submitting to the pool,
/// which could deadlock a fully occupied pool or oversubscribe the cores.
bool in_compute_worker();

/// Run fn(task) for task in [0, tasks) on the shared compute pool and block
/// until all tasks finish. The calling thread and up to compute_threads() - 1
/// pool workers claim tasks from one counter, so a call never runs more
/// than compute_threads() threads, whatever its task count. Falls back to
/// an inline serial loop when tasks <= 1, compute_threads() == 1, or when
/// invoked from inside another call's task. Exceptions from tasks are
/// rethrown; when several tasks throw, the lowest-numbered one's wins.
///
/// Determinism contract: callers that need bit-reproducible results across
/// thread counts must make the *decomposition* (what each task computes and
/// the order partial results are reduced) independent of compute_threads();
/// this function only varies which thread executes a task, never what a
/// task is. See DESIGN.md "Tensor-engine threading model".
void run_compute_tasks(int tasks, const std::function<void(int)>& fn);

/// Contiguous near-even partition of [0, n) into `chunks` pieces: piece
/// `c`'s [begin, end). The first n % chunks pieces hold one extra item.
std::pair<std::int64_t, std::int64_t> chunk_range(std::int64_t n,
                                                  std::int64_t chunks,
                                                  std::int64_t c);

/// Run fn(i) for every sample i in [0, batch), one compute task per sample:
/// the threads claim samples as they finish the previous one, so a thread
/// that is preempted delays one sample, not a fixed share of the batch.
/// For per-sample work that writes disjoint outputs and computes a sample
/// the same wherever it runs, so results are bit-identical at any thread
/// count.
void for_each_sample(std::int64_t batch,
                     const std::function<void(std::int64_t)>& fn);

/// Fixed-size pool of std::thread workers draining a FIFO task queue.
/// Tasks run in submission order (though they complete in any order); an
/// exception escaping a task is captured and rethrown from the
/// corresponding future's get().
class ThreadPool {
 public:
  /// Spawns `threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int threads);
  /// Drains the queue, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the returned future resolves when it has run.
  std::future<void> submit(std::function<void()> task);

  int size() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace dcn
