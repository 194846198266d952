// Analyzer fixture: one-level call-graph propagation.  The hot
// function itself is clean, but it calls a non-hot helper (uniquely
// resolvable by name) that allocates -- the finding lands on the hot
// caller with a "via <helper>" detail.
// expect: hot-alloc

#define ACCORD_HOT

namespace fixture
{

struct Node
{
    Node *next = nullptr;
};

struct Pool
{
    Node *growPool()
    {
        return new Node();
    }

    ACCORD_HOT Node *acquire()
    {
        return growPool();
    }
};

} // namespace fixture
