// Analyzer fixture: the sanctioned allocation-free hot-path idioms.
// Placement new (arena reuse), pooled std::allocate_shared, and an
// explicitly allowed amortized arena-growth make_unique stay silent.
// expect-clean

#define ACCORD_HOT

#include <memory>
#include <vector>

namespace fixture
{

struct Node
{
    Node *next = nullptr;
};

template <typename T> struct PoolAllocator
{
    using value_type = T;
    T *allocate(unsigned long n);
    void deallocate(T *p, unsigned long n);
};

struct Pump
{
    Node *free_list_ = nullptr;
    std::vector<std::unique_ptr<Node[]>> chunks_;
    PoolAllocator<Node> pool_;

    ACCORD_HOT Node *acquire()
    {
        Node *node = free_list_;
        if (node != nullptr) {
            free_list_ = node->next;
            ::new (node) Node();
            return node;
        }
        // accord-lint: allow(hot-alloc) arena growth is amortized; the
        // freelist serves the steady state allocation-free
        chunks_.push_back(std::make_unique<Node[]>(64));
        return &chunks_.back()[0];
    }

    ACCORD_HOT std::shared_ptr<Node> pooled()
    {
        return std::allocate_shared<Node>(pool_);
    }
};

} // namespace fixture
