#include "dramcache/organization.hpp"

#include "common/log.hpp"
#include "dramcache/org_colassoc.hpp"
#include "dramcache/org_setassoc.hpp"

namespace accord::dramcache
{

core::CacheGeometry
orgGeometry(const DramCacheParams &params)
{
    switch (params.org) {
      case Organization::SetAssoc:
        return SetAssocOrg::geometryFor(params);
      case Organization::ColumnAssoc:
        return ColAssocOrg::geometryFor(params);
    }
    fatal("dram cache: unknown Organization %d",
          static_cast<int>(params.org));
}

std::unique_ptr<OrgStrategy>
makeOrganization(const OrgContext &ctx)
{
    switch (ctx.params.org) {
      case Organization::SetAssoc:
        return std::make_unique<SetAssocOrg>(ctx);
      case Organization::ColumnAssoc:
        return std::make_unique<ColAssocOrg>(ctx);
    }
    fatal("dram cache: unknown Organization %d",
          static_cast<int>(ctx.params.org));
}

} // namespace accord::dramcache
