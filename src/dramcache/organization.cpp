#include "dramcache/organization.hpp"

#include <mutex>

#include "dramcache/enums.hpp"
#include "dramcache/org_colassoc.hpp"
#include "dramcache/org_setassoc.hpp"

namespace accord::dramcache
{

core::NamedRegistry<OrgFactory> &
organizationRegistry()
{
    static core::NamedRegistry<OrgFactory> registry;
    return registry;
}

void
registerBuiltinOrganizations()
{
    // Explicit and idempotent rather than static-initializer magic:
    // the controller calls this before resolving its factory, so
    // builtins exist regardless of link order, and user-registered
    // organizations can never race them.  call_once makes concurrent
    // sweep workers wait until the adds are done, not skip them.
    static std::once_flag once;
    std::call_once(once, [] {
        organizationRegistry().add(
            toToken(Organization::SetAssoc),
            {&SetAssocOrg::geometryFor, [](const OrgContext &ctx) {
                 return std::unique_ptr<OrgStrategy>(
                     std::make_unique<SetAssocOrg>(ctx));
             }});
        organizationRegistry().add(
            toToken(Organization::ColumnAssoc),
            {&ColAssocOrg::geometryFor, [](const OrgContext &ctx) {
                 return std::unique_ptr<OrgStrategy>(
                     std::make_unique<ColAssocOrg>(ctx));
             }});
    });
}

} // namespace accord::dramcache
