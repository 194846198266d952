// Analyzer fixture: sanctioned virtual dispatch.  Calls through the
// allowlisted organization/policy seams are the design; a qualified
// call (`obj->Concrete::method()`) is the devirtualization idiom and
// never dispatches.
// expect-clean

#define ACCORD_HOT

namespace fixture
{

struct OrgStrategy
{
    virtual ~OrgStrategy() = default;
    virtual void planRead(unsigned long long line) = 0;
};

struct SetAssocOrg : OrgStrategy
{
    void planRead(unsigned long long line) override;
};

struct Controller
{
    OrgStrategy *org_ = nullptr;
    SetAssocOrg *setassoc_ = nullptr;

    ACCORD_HOT void read(unsigned long long line)
    {
        org_->planRead(line);                    // allowlisted seam
        setassoc_->SetAssocOrg::planRead(line);  // devirtualized
    }
};

} // namespace fixture
