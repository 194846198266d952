#include "common/event_queue.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace accord
{

EventQueue::EventQueue()
    : buckets_(kBuckets), occupancy_(kBuckets / 64, 0)
{
}

ACCORD_HOT EventQueue::Node *
EventQueue::allocNode()
{
    if (free_nodes_ == nullptr) {
        // accord-lint: allow(hot-alloc) arena growth is amortized; the
        // freelist serves the steady state allocation-free
        chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
        Node *chunk = chunks_.back().get();
        for (std::size_t i = 0; i < kChunkNodes; ++i) {
            chunk[i].next = free_nodes_;
            free_nodes_ = &chunk[i];
        }
    }
    Node *node = free_nodes_;
    free_nodes_ = node->next;
    node->next = nullptr;
    return node;
}

ACCORD_HOT void
EventQueue::freeNode(Node *node)
{
    node->next = free_nodes_;
    free_nodes_ = node;
}

ACCORD_HOT void
EventQueue::appendBucketed(Node *node)
{
    const std::size_t index = node->when & kMask;
    Bucket &bucket = buckets_[index];
    if (bucket.head == nullptr) {
        bucket.head = node;
        occupancy_[index / 64] |= std::uint64_t{1} << (index % 64);
    } else {
        bucket.tail->next = node;
    }
    bucket.tail = node;
    ++bucketed_;
}

ACCORD_HOT void
EventQueue::scheduleAt(Cycle when, Callback callback)
{
    ACCORD_ASSERT(when >= now_,
                  "event scheduled in the past (%llu < %llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(now_));
    ++pending_;
    if (pending_ > occupancy_peak_)
        occupancy_peak_ = pending_;
    if (when - now_ < kBuckets) {
        Node *node = allocNode();
        node->when = when;
        node->cb = std::move(callback);
        appendBucketed(node);
        return;
    }
    ++overflow_spills_;
    overflow_.push_back(
        Overflow{when, overflow_seq_++, std::move(callback)});
    std::push_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
}

ACCORD_HOT Cycle
EventQueue::nextBucketedCycle() const
{
    // All bucketed events lie in (now_, now_ + kBuckets), so circular
    // distance from now_ orders them by cycle: the first occupied
    // bucket after the cursor is the earliest pending cycle.
    const std::size_t start = (now_ + 1) & kMask;
    std::size_t word = start / 64;
    std::uint64_t bits =
        occupancy_[word] & (~std::uint64_t{0} << (start % 64));
    for (std::size_t scanned = 0; scanned <= occupancy_.size();
         ++scanned) {
        if (bits != 0) {
            const std::size_t index =
                word * 64
                + static_cast<std::size_t>(__builtin_ctzll(bits));
            const Cycle distance = (index - start) & kMask;
            return now_ + 1 + distance;
        }
        word = (word + 1) % occupancy_.size();
        bits = occupancy_[word];
    }
    panic("event queue: bucketed count positive but no occupied bucket");
}

ACCORD_HOT void
EventQueue::advance()
{
    // Every overflow event satisfies when >= migration-time now_ +
    // kBuckets, so the earliest bucketed cycle (always < now_ +
    // kBuckets) wins whenever the calendar is non-empty.
    Cycle next;
    if (bucketed_ > 0)
        next = nextBucketedCycle();
    else
        next = overflow_.front().when;
    ACCORD_CHECK(next > now_,
                 "event time regressed (%llu <= %llu)",
                 static_cast<unsigned long long>(next),
                 static_cast<unsigned long long>(now_));
    now_ = next;

    // Migrate everything the slid horizon now covers, in (when, seq)
    // order; target buckets are empty (no event for those cycles can
    // have bucketed before this advance), so FIFO order is preserved.
    while (!overflow_.empty()
           && overflow_.front().when - now_ < kBuckets) {
        std::pop_heap(overflow_.begin(), overflow_.end(),
                      OverflowLater{});
        Node *node = allocNode();
        node->when = overflow_.back().when;
        node->cb = std::move(overflow_.back().cb);
        overflow_.pop_back();
        appendBucketed(node);
    }
}

ACCORD_HOT bool
EventQueue::step()
{
    if (pending_ == 0)
        return false;
    if (buckets_[now_ & kMask].head == nullptr)
        advance();

    const std::size_t index = now_ & kMask;
    Bucket &bucket = buckets_[index];
    Node *node = bucket.head;
    ACCORD_CHECK(node->when == now_,
                 "bucket invariant broken (%llu != %llu)",
                 static_cast<unsigned long long>(node->when),
                 static_cast<unsigned long long>(now_));
    bucket.head = node->next;
    if (bucket.head == nullptr) {
        bucket.tail = nullptr;
        occupancy_[index / 64] &=
            ~(std::uint64_t{1} << (index % 64));
    }
    --pending_;
    --bucketed_;
    ++executed_;

    // The node is off its bucket and off the freelist while its
    // callback runs, so events the callback schedules cannot reuse it.
    node->cb();
    node->cb.reset();
    freeNode(node);
    return true;
}

} // namespace accord
