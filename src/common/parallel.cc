#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/cli.h"
#include "common/error.h"
#include "common/logging.h"

namespace crophe {

namespace {

/** Pool size resolution: override > CROPHE_THREADS > hardware. */
u32
defaultThreadCount()
{
    if (const char *env = std::getenv("CROPHE_THREADS")) {
        std::optional<u32> v = cli::parseU32(env);
        if (v && *v > 0 && *v <= kMaxThreads)
            return *v;
        CROPHE_WARN("ignoring invalid CROPHE_THREADS=", env);
    }
    u32 hw = std::thread::hardware_concurrency();
    return std::clamp<u32>(hw, 1, kMaxThreads);
}

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
u32 g_thread_override = 0;  // 0 = no explicit setGlobalThreads() yet

}  // namespace

/**
 * One fork-join batch. Chunks self-schedule through an atomic cursor, so
 * any executor (the forking thread, a worker that popped a ticket) claims
 * the next unclaimed chunk; tickets hold shared ownership so a ticket
 * popped after the batch completed is a safe no-op.
 */
struct ThreadPool::Batch
{
    const std::function<void(u32)> *fn = nullptr;
    u32 chunks = 0;
    std::atomic<u32> next{0};
    std::atomic<u32> done{0};
    std::mutex m;
    std::condition_variable cv;
    std::vector<std::exception_ptr> errors;
};

struct ThreadPool::Worker
{
    std::mutex m;
    std::deque<std::shared_ptr<Batch>> deq;
    std::thread thread;
    ThreadPool *pool = nullptr;
};

// Sleep/wake state shared by all executors of one pool. The ticket
// counter is an upper bound on deque occupancy (incremented before a
// push, decremented after a pop), so counter == 0 implies empty deques
// and a worker may sleep.
struct ThreadPool::State
{
    std::mutex m;
    std::condition_variable cv;
    std::atomic<u64> tickets{0};
    std::atomic<bool> stop{false};
};

namespace {

/** Set while a pool thread (or a thread draining a batch) runs chunks. */
thread_local ThreadPool *tl_pool = nullptr;
thread_local u32 tl_worker_index = 0;

}  // namespace

ThreadPool::ThreadPool(u32 threads)
    : threads_(threads == 0 ? 1 : threads), state_(std::make_unique<State>())
{
    // threads_ - 1 workers; the forking thread is the last executor.
    for (u32 i = 0; i + 1 < threads_; ++i) {
        auto *w = new Worker();
        w->pool = this;
        workers_.push_back(w);
    }
    for (u32 i = 0; i < workers_.size(); ++i)
        workers_[i]->thread = std::thread([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(state_->m);
        state_->stop.store(true, std::memory_order_release);
    }
    state_->cv.notify_all();
    // Join every worker before deleting any: a still-running worker's
    // steal loop touches its peers' deques, so no Worker may die while
    // any thread is alive.
    for (auto *w : workers_)
        if (w->thread.joinable())
            w->thread.join();
    for (auto *w : workers_)
        delete w;
}

void
ThreadPool::drain(Batch &batch)
{
    for (;;) {
        u32 c = batch.next.fetch_add(1, std::memory_order_relaxed);
        if (c >= batch.chunks)
            return;
        try {
            (*batch.fn)(c);
        } catch (...) {
            batch.errors[c] = std::current_exception();
        }
        if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            batch.chunks) {
            { std::lock_guard<std::mutex> lock(batch.m); }
            batch.cv.notify_all();
        }
    }
}

void
ThreadPool::workerLoop(u32 index)
{
    tl_pool = this;
    tl_worker_index = index + 1;  // 0 is reserved for non-pool threads
    State &st = *state_;

    for (;;) {
        std::shared_ptr<Batch> batch;
        {
            // Own deque first (LIFO keeps fresh forks local) ...
            Worker &self = *workers_[index];
            std::lock_guard<std::mutex> lock(self.m);
            if (!self.deq.empty()) {
                batch = std::move(self.deq.back());
                self.deq.pop_back();
            }
        }
        if (!batch) {
            // ... then steal the oldest ticket from a victim.
            for (u32 k = 1; k < workers_.size() && !batch; ++k) {
                Worker &victim =
                    *workers_[(index + k) % workers_.size()];
                std::lock_guard<std::mutex> lock(victim.m);
                if (!victim.deq.empty()) {
                    batch = std::move(victim.deq.front());
                    victim.deq.pop_front();
                }
            }
        }
        if (batch) {
            st.tickets.fetch_sub(1, std::memory_order_acq_rel);
            drain(*batch);
            continue;
        }
        std::unique_lock<std::mutex> lock(st.m);
        st.cv.wait(lock, [&] {
            return st.stop.load(std::memory_order_acquire) ||
                   st.tickets.load(std::memory_order_acquire) > 0;
        });
        if (st.stop.load(std::memory_order_acquire))
            return;
    }
}

void
ThreadPool::run(u32 chunks, const std::function<void(u32)> &fn)
{
    if (chunks == 0)
        return;

    auto rethrowFirst = [](const std::vector<std::exception_ptr> &errors) {
        for (const auto &e : errors)
            if (e)
                std::rethrow_exception(e);
    };

    if (chunks == 1 || threads_ == 1 || workers_.empty()) {
        // Serial path: run every chunk (even past a failure) so side
        // effects match a parallel run, then surface the lowest-index
        // exception — the same contract as the parallel path.
        std::vector<std::exception_ptr> errors(chunks);
        for (u32 c = 0; c < chunks; ++c) {
            try {
                fn(c);
            } catch (...) {
                errors[c] = std::current_exception();
            }
        }
        rethrowFirst(errors);
        return;
    }

    auto batch = std::make_shared<Batch>();
    batch->fn = &fn;
    batch->chunks = chunks;
    batch->errors.resize(chunks);

    // Share min(chunks, threads) - 1 tickets with the pool; every ticket
    // is an invitation to help drain the batch. The forking thread joins
    // in too, so a batch never waits for a worker to become free.
    u32 tickets = std::min<u32>(chunks, threads_) - 1;
    State &st = *state_;
    u32 start = tl_pool == this && tl_worker_index > 0
                    ? tl_worker_index - 1
                    : 0;
    // Publish the ticket count before the tickets themselves so a worker
    // that pops early can never drive the counter below zero.
    st.tickets.fetch_add(tickets, std::memory_order_acq_rel);
    for (u32 t = 0; t < tickets; ++t) {
        Worker &w = *workers_[(start + t) % workers_.size()];
        std::lock_guard<std::mutex> lock(w.m);
        w.deq.push_back(batch);
    }
    if (tickets > 0) {
        { std::lock_guard<std::mutex> lock(st.m); }
        st.cv.notify_all();
    }

    drain(*batch);

    if (batch->done.load(std::memory_order_acquire) != chunks) {
        std::unique_lock<std::mutex> lock(batch->m);
        batch->cv.wait(lock, [&] {
            return batch->done.load(std::memory_order_acquire) == chunks;
        });
    }
    rethrowFirst(batch->errors);
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(
            g_thread_override > 0 ? g_thread_override
                                  : defaultThreadCount());
    return *g_pool;
}

void
ThreadPool::setGlobalThreads(u32 threads)
{
    if (threads > kMaxThreads)
        throw RecoverableError("thread count " + std::to_string(threads) +
                               " exceeds the limit of " +
                               std::to_string(kMaxThreads));
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    g_thread_override = threads;
    g_pool.reset();  // recreated lazily at the next global() call
}

u32
ThreadPool::globalThreads()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_pool)
        return g_pool->threads();
    return g_thread_override > 0 ? g_thread_override
                                 : defaultThreadCount();
}

void
parallelForRange(u64 begin, u64 end,
                 const std::function<void(u64, u64)> &fn)
{
    if (end <= begin)
        return;
    u64 len = end - begin;
    ThreadPool &pool = ThreadPool::global();
    u32 chunks = static_cast<u32>(
        std::min<u64>(len, pool.threads()));
    // Static chunking: boundaries depend only on (begin, end, chunks),
    // never on execution order.
    pool.run(chunks, [&](u32 c) {
        u64 b = begin + len * c / chunks;
        u64 e = begin + len * (c + 1) / chunks;
        if (b < e)
            fn(b, e);
    });
}

void
parallelFor(u64 begin, u64 end, const std::function<void(u64)> &fn)
{
    parallelForRange(begin, end, [&](u64 b, u64 e) {
        for (u64 i = b; i < e; ++i)
            fn(i);
    });
}

void
parallelInvoke(const std::vector<std::function<void()>> &tasks)
{
    if (tasks.empty())
        return;
    ThreadPool::global().run(static_cast<u32>(tasks.size()),
                             [&](u32 c) { tasks[c](); });
}

}  // namespace crophe
