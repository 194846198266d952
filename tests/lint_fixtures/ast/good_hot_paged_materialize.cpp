// Analyzer fixture: the sanctioned paged-storage idioms.  The hot
// read path uses the never-allocating read(); materialization happens
// in a non-hot install function; and a deliberate hot-path
// materialization (the install slow path) carries an explicit
// accord-lint allow with its justification.
// expect-clean

#define ACCORD_HOT

namespace fixture
{

struct Column
{
    int storage_[64] = {};

    int read(unsigned long slot) const
    {
        return storage_[slot];
    }

    int &materializeSlot(unsigned long slot)
    {
        return storage_[slot];
    }
};

struct TagStore
{
    Column stamps_;

    ACCORD_HOT int lookup(unsigned long slot) const
    {
        return stamps_.read(slot);
    }

    void install(unsigned long slot)
    {
        stamps_.materializeSlot(slot) = 1;
    }

    ACCORD_HOT void touch(unsigned long slot)
    {
        // accord-lint: allow(hot-paged-materialize) installs are rare
        // (miss path); the page is almost always already resident
        stamps_.materializeSlot(slot) = 1;
    }
};

} // namespace fixture
