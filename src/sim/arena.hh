/**
 * @file
 * Slab/freelist arena for the simulator's hot fixed-size
 * allocations: coherence/network message objects (one allocation
 * per hop via allocate_shared).
 *
 * SlabPool<T> hands out raw storage for exactly one T from 64-entry
 * slabs threaded by a freelist; ArenaAllocator<T> adapts it to the
 * standard allocator interface (n == 1 pooled, larger requests fall
 * back to ::operator new, so container rebinds that allocate arrays
 * still work).
 *
 * Thread contract: the freelist itself is thread_local, so the hot
 * path (alloc/free on one thread) stays lock-free. Slab *storage*,
 * however, is owned by a process-lifetime registry shared by all
 * threads: a node allocated on shard thread A may legally be freed
 * on thread B (B simply threads it onto B's local freelist). This is
 * exactly what the sharded run loop needs — messages are allocated
 * on the sending shard's thread and released wherever the last
 * shared_ptr reference dies (the barrier thread or the destination
 * shard). When a thread exits, its local freelist is donated back to
 * the registry under a mutex so a later refill can reuse the nodes.
 */

#ifndef WB_SIM_ARENA_HH
#define WB_SIM_ARENA_HH

#include <cstddef>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

namespace wb
{

/** Freelist-of-slabs pool for single objects of type T. Storage is
 *  only returned to the OS at process exit; steady state recycles. */
template <typename T>
class SlabPool
{
    union Node
    {
        Node *next;
        alignas(T) unsigned char storage[sizeof(T)];
    };
    static constexpr std::size_t slabSize = 64;

    /** Process-lifetime slab owner + donated-freelist exchange. The
     *  mutex is only taken on slab refill and thread teardown, never
     *  on the per-allocation fast path. Leaked deliberately at
     *  process exit (never destroyed), so nodes freed from
     *  late-dying threads — including statics holding pooled
     *  shared_ptrs — always have live backing storage. */
    struct Registry
    {
        std::mutex mtx;
        std::vector<std::unique_ptr<Node[]>> slabs;
        Node *donated = nullptr;

        // Grab the donated chain if any, else carve a fresh slab.
        Node *
        take()
        {
            std::lock_guard<std::mutex> g(mtx);
            if (donated) {
                Node *chain = donated;
                donated = nullptr;
                return chain;
            }
            slabs.push_back(std::make_unique<Node[]>(slabSize));
            Node *slab = slabs.back().get();
            for (std::size_t i = 0; i + 1 < slabSize; ++i)
                slab[i].next = &slab[i + 1];
            slab[slabSize - 1].next = nullptr;
            return &slab[0];
        }

        void
        donate(Node *chain)
        {
            if (!chain)
                return;
            Node *tail = chain;
            while (tail->next)
                tail = tail->next;
            std::lock_guard<std::mutex> g(mtx);
            tail->next = donated;
            donated = chain;
        }
    };

    static Registry &
    registry()
    {
        static Registry *r = new Registry(); // intentionally leaked
        return *r;
    }

  public:
    static SlabPool &
    instance()
    {
        thread_local SlabPool pool;
        return pool;
    }

    ~SlabPool() { registry().donate(_free); }

    void *
    alloc()
    {
        if (!_free)
            _free = registry().take();
        Node *n = _free;
        _free = n->next;
        return n;
    }

    void
    free(void *p)
    {
        Node *n = static_cast<Node *>(p);
        n->next = _free;
        _free = n;
    }

  private:
    Node *_free = nullptr;
};

/** Standard-allocator adapter over SlabPool (stateless; all
 *  instances are interchangeable). Use with allocate_shared so the
 *  control block and object land in one pooled node, or as a
 *  node-based container's allocator. */
template <typename T>
struct ArenaAllocator
{
    using value_type = T;

    ArenaAllocator() = default;
    template <typename U>
    ArenaAllocator(const ArenaAllocator<U> &)
    {}

    T *
    allocate(std::size_t n)
    {
        if (n == 1)
            return static_cast<T *>(SlabPool<T>::instance().alloc());
        return static_cast<T *>(::operator new(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        if (n == 1)
            SlabPool<T>::instance().free(p);
        else
            ::operator delete(p);
    }

    template <typename U>
    bool
    operator==(const ArenaAllocator<U> &) const
    {
        return true;
    }
    template <typename U>
    bool
    operator!=(const ArenaAllocator<U> &) const
    {
        return false;
    }
};

} // namespace wb

#endif // WB_SIM_ARENA_HH
