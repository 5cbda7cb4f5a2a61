#include "util/parallel.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancel.h"

namespace msc::util {

namespace {

// Set while this thread executes a chunk callback; parallelFor refuses to
// start when it is, which keeps the "no nested parallelFor" rule uniform
// across serial and pooled execution.
thread_local bool tlsInChunk = false;

// Job ids for the trace timeline: every parallelFor submission (pooled or
// inline) gets a distinct id so per-chunk slices group by job in Perfetto.
std::atomic<std::uint64_t> gJobTraceId{0};

// Inline-execution variant of the per-chunk trace slice (serial path and
// single-chunk jobs run on the submitting thread).
void traceInlineChunk(std::uint64_t jobId, std::size_t chunk,
                      std::size_t chunkBegin, std::size_t chunkEnd) {
  msc::obs::trace::begin("pool.chunk", {{"job", jobId},
                                        {"chunk", chunk},
                                        {"begin", chunkBegin},
                                        {"end", chunkEnd}});
}

struct ChunkGuard {
  ChunkGuard() { tlsInChunk = true; }
  ~ChunkGuard() { tlsInChunk = false; }
};

void publishJob(std::size_t chunkCount, int participants,
                std::size_t minChunks, std::size_t maxChunks, bool pooled) {
  static auto& cJobs = msc::obs::counter("pool.jobs");
  static auto& cSerialJobs = msc::obs::counter("pool.jobs.serial");
  static auto& cChunks = msc::obs::counter("pool.chunks");
  static auto& cParticipants = msc::obs::counter("pool.participants");
  static auto& sImbalance = msc::obs::stat("pool.chunk_imbalance");
  (pooled ? cJobs : cSerialJobs).add(1);
  cChunks.add(chunkCount);
  if (pooled) {
    cParticipants.add(static_cast<std::uint64_t>(participants));
    // Spread between the busiest and laziest participant, in chunks: 0 is
    // a perfectly balanced job, chunkCount-ish means one thread did it all.
    sImbalance.record(static_cast<double>(maxChunks - minChunks));
  }
}

}  // namespace

bool inParallelRegion() noexcept { return tlsInChunk; }

int resolveThreadCount(int requested) {
  if (requested < 0) {
    throw std::invalid_argument("parallel: thread count must be >= 0");
  }
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) : threads_(threads) {
  if (threads < 1) {
    throw std::invalid_argument("ThreadPool: need at least one thread");
  }
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i) {
    workers_.emplace_back([this] { workerMain(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  workCv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::runChunks(Job& job) noexcept {
  std::size_t mine = 0;
  const bool traced = msc::obs::trace::enabled();
  for (;;) {
    const std::size_t c = job.nextChunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunkCount) break;
    const std::size_t chunkBegin = job.begin + c * job.grain;
    const std::size_t chunkEnd = std::min(job.end, chunkBegin + job.grain);
    // Flamegraph lanes: one Begin/End slice per chunk on the executing
    // thread, tagged with the job generation and chunk index so Perfetto
    // shows how the static chunk layout was scheduled across workers.
    if (traced) {
      msc::obs::trace::begin("pool.chunk", {{"job", job.traceId},
                                            {"chunk", c},
                                            {"begin", chunkBegin},
                                            {"end", chunkEnd}});
    }
    // Cooperative cancellation between chunks: a fired token skips the
    // callback but still drains the chunk, so the job completes normally
    // and the submitter (which opted in via ScopedChunkCancel) discards
    // the partial result.
    const bool skip = job.cancel != nullptr && job.cancel->cancelled();
    try {
      if (!skip) {
        const ChunkGuard guard;
        (*job.fn)(chunkBegin, chunkEnd);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!job.error) job.error = std::current_exception();
    }
    if (traced) msc::obs::trace::end("pool.chunk");
    ++mine;
    const std::lock_guard<std::mutex> lock(mu_);
    if (++job.chunksDone == job.chunkCount) doneCv_.notify_all();
  }
  const std::lock_guard<std::mutex> lock(mu_);
  job.minWorkerChunks = std::min(job.minWorkerChunks, mine);
  job.maxWorkerChunks = std::max(job.maxWorkerChunks, mine);
}

void ThreadPool::workerMain() {
  // Label this worker's trace lane; applied lazily on its first event.
  msc::obs::trace::setCurrentThreadName("pool.worker");
  std::uint64_t seenGeneration = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    workCv_.wait(lock, [&] {
      return stop_ || (job_ != nullptr && generation_ != seenGeneration);
    });
    if (stop_) return;
    seenGeneration = generation_;
    Job& job = *job_;
    if (job.joined >= job.maxParticipants ||
        job.nextChunk.load(std::memory_order_relaxed) >= job.chunkCount) {
      continue;
    }
    ++job.joined;
    ++job.active;
    lock.unlock();
    {
      // Attribute this worker's share of the job to the submitting
      // request: bind its context (tags trace events, routes phase notes)
      // and charge the CPU this thread burns on the chunks. The submitter
      // is already bound and CPU-measured by the serve layer, so only
      // workers account here — no double counting. One TLS write each way
      // when ctx is null, preserving the unattributed hot path.
      const msc::obs::ScopedRequestBind bind(job.ctx);
      const msc::obs::ScopedCpuAttribution cpu;
      runChunks(job);
    }
    lock.lock();
    --job.active;
    doneCv_.notify_all();
  }
}

void ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                             std::size_t grain, int maxThreads,
                             const ChunkFn& fn) {
  if (tlsInChunk) {
    throw std::logic_error(
        "ThreadPool: nested parallelFor (called from a chunk callback)");
  }
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t count = end - begin;
  const std::size_t chunkCount = (count + grain - 1) / grain;
  const int limit = maxThreads <= 0 ? threads_ : std::min(maxThreads, threads_);

  if (chunkCount == 1 || limit == 1) {
    // Inline execution, same chunk layout; exceptions propagate directly.
    const bool traced = msc::obs::trace::enabled();
    const CancelToken* const cancel = ScopedChunkCancel::current();
    const std::uint64_t jobId =
        traced ? gJobTraceId.fetch_add(1, std::memory_order_relaxed) : 0;
    for (std::size_t c = 0; c < chunkCount; ++c) {
      const std::size_t chunkBegin = begin + c * grain;
      const std::size_t chunkEnd = std::min(end, chunkBegin + grain);
      if (traced) traceInlineChunk(jobId, c, chunkBegin, chunkEnd);
      if (cancel == nullptr || !cancel->cancelled()) {
        const ChunkGuard guard;
        fn(chunkBegin, chunkEnd);
      }
      if (traced) msc::obs::trace::end("pool.chunk");
    }
    publishJob(chunkCount, 1, chunkCount, chunkCount, false);
    return;
  }

  const std::lock_guard<std::mutex> submitLock(submitMu_);
  Job job;
  job.begin = begin;
  job.end = end;
  job.grain = grain;
  job.chunkCount = chunkCount;
  job.traceId = gJobTraceId.fetch_add(1, std::memory_order_relaxed);
  job.ctx = msc::obs::currentRequest();
  job.cancel = ScopedChunkCancel::current();
  job.fn = &fn;
  job.maxParticipants = limit;
  job.minWorkerChunks = std::numeric_limits<std::size_t>::max();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++generation_;
  }
  workCv_.notify_all();
  runChunks(job);
  int participants = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    doneCv_.wait(lock, [&] {
      return job.chunksDone == job.chunkCount && job.active == 0;
    });
    job_ = nullptr;  // late-waking workers must not see the dead job
    participants = job.joined;
  }
  publishJob(chunkCount, participants, job.minWorkerChunks,
             job.maxWorkerChunks, true);
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& globalPool(int threads) {
  static std::mutex gmu;
  static ThreadPool* pool = nullptr;  // leaked, like the obs registry
  const int want = resolveThreadCount(threads);
  const std::lock_guard<std::mutex> lock(gmu);
  if (pool == nullptr || pool->threads() < want) {
    // Grow-only replacement; the old pool (if any) keeps serving whatever
    // jobs are in flight and is never torn down.
    pool = new ThreadPool(want);
  }
  return *pool;
}

void parallelForThreads(int threads, std::size_t begin, std::size_t end,
                        std::size_t grain, const ThreadPool::ChunkFn& fn) {
  const int resolved = resolveThreadCount(threads);
  if (resolved == 1) {
    if (tlsInChunk) {
      throw std::logic_error(
          "ThreadPool: nested parallelFor (called from a chunk callback)");
    }
    if (begin >= end) return;
    if (grain == 0) grain = 1;
    const std::size_t chunkCount = (end - begin + grain - 1) / grain;
    const bool traced = msc::obs::trace::enabled();
    const CancelToken* const cancel = ScopedChunkCancel::current();
    const std::uint64_t jobId =
        traced ? gJobTraceId.fetch_add(1, std::memory_order_relaxed) : 0;
    for (std::size_t c = 0; c < chunkCount; ++c) {
      const std::size_t chunkBegin = begin + c * grain;
      const std::size_t chunkEnd = std::min(end, chunkBegin + grain);
      if (traced) traceInlineChunk(jobId, c, chunkBegin, chunkEnd);
      if (cancel == nullptr || !cancel->cancelled()) {
        const ChunkGuard guard;
        fn(chunkBegin, chunkEnd);
      }
      if (traced) msc::obs::trace::end("pool.chunk");
    }
    publishJob(chunkCount, 1, chunkCount, chunkCount, false);
    return;
  }
  globalPool(resolved).parallelFor(begin, end, grain, resolved, fn);
}

}  // namespace msc::util
