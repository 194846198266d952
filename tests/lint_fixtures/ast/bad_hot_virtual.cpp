// Analyzer fixture: virtual dispatch on a hot path through a base
// that is NOT on the sanctioned allowlist (OrgStrategy / OrgServices
// / WayPolicy are the extension seams; everything else must be
// devirtualized or explicitly allowed).
// expect: hot-virtual

#define ACCORD_HOT

namespace fixture
{

struct Sink
{
    virtual ~Sink() = default;
    virtual void push(int value) = 0;
};

struct Drain
{
    Sink *sink_ = nullptr;

    ACCORD_HOT void flush()
    {
        sink_->push(1);
    }
};

} // namespace fixture
