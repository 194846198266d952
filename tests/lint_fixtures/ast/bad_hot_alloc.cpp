// Analyzer fixture: heap allocation inside an ACCORD_HOT function.
// Covers all three detection forms: operator new, the C allocator
// family, and the std::make_* helpers.
// expect: hot-alloc

#define ACCORD_HOT

#include <cstdlib>
#include <memory>

namespace fixture
{

struct Node
{
    Node *next = nullptr;
};

struct Pump
{
    ACCORD_HOT void step()
    {
        auto *node = new Node();
        void *raw = std::malloc(64);
        auto shared = std::make_shared<Node>();
        (void)node;
        (void)raw;
        (void)shared;
    }
};

} // namespace fixture
