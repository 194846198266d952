// Analyzer fixture: propagation boundaries.  A callee whose name is
// ambiguous across the tree is skipped (no guessing), and a callee
// carrying the ACCORD_HOT_ALLOW escape hatch has already justified
// its allocations.
// expect-clean

#define ACCORD_HOT
#define ACCORD_HOT_ALLOW(reason)

namespace fixture
{

struct Node
{
    Node *next = nullptr;
};

struct PoolA
{
    Node *grow() { return new Node(); }
};

struct PoolB
{
    Node *grow() { return new Node(); }
};

struct Arena
{
    PoolA a_;

    ACCORD_HOT ACCORD_HOT_ALLOW("startup-only warm fill; never runs "
                                "per simulated event")
    Node *prefill()
    {
        return new Node();
    }

    ACCORD_HOT Node *acquire()
    {
        grow();       // ambiguous across PoolA/PoolB: not propagated
        return prefill();  // callee justified via ACCORD_HOT_ALLOW
    }

    Node *grow();
};

} // namespace fixture
