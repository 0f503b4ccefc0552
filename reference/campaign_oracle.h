// Serial campaign oracle: plain nested loops over the grid, one cell at a
// time — no thread pool, no planner blocks, no checkpoint — composed from
// the campaign's public registries and seed chains. `campaign::run_campaign`
// must match it bitwise at any PMIOT_THREADS.
#pragma once

#include "campaign/campaign.h"

namespace pmiot::reference {

campaign::CampaignResult run_campaign_serial(
    const campaign::CampaignConfig& config);

}  // namespace pmiot::reference
