// Per-home serial fleet oracle: regenerates each home with
// `fleet::make_home` and runs `net::SmartGateway::process` on it — no
// batched classification, no thread pool, no fleet metrics. The batched
// `fleet::FleetGateway::process_fleet` must match it bitwise at any
// PMIOT_THREADS.
#pragma once

#include "fleet/fleet_gateway.h"
#include "ml/classifier.h"
#include "net/anomaly.h"
#include "net/gateway.h"

namespace pmiot::reference {

/// `windows_classified` is a statistic of the batched pass; the oracle
/// leaves it zero and `fleet::describe_divergence` does not compare it.
fleet::FleetReport run_fleet_serial(const ml::Classifier& classifier,
                                    const net::AnomalyDetector& detector,
                                    const fleet::FleetOptions& options);

}  // namespace pmiot::reference
