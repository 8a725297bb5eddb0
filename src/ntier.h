// Umbrella header: the whole public API.
//
// Downstream users can include this single header; fine-grained headers
// remain available for faster builds.
#pragma once

#include "core/config.h"         // experiment configuration
#include "core/ctqo_analyzer.h"  // drop-episode classification
#include "core/experiment.h"     // run + summarize
#include "core/export.h"         // CSV dumps of a run
#include "core/report.h"         // figure-style text panels
#include "core/scenarios.h"      // the paper's canned experiments
#include "core/system.h"         // the 3-tier testbed (NX=0..3)
#include "core/testbed.h"        // run runtime shared by both builders
#include "core/validation.h"     // queueing-law sanity checks
#include "fault/fault_injector.h"  // deterministic crash/link/slow-node faults
#include "graph/graph_system.h"  // service-graph experiments (DAG topologies)
#include "graph/topology.h"      // graph config model + text grammar
#include "policy/tail_policy.h"  // deadlines, retries, hedging, breakers
#include "trace/critical_path.h"  // span-tree latency attribution
#include "workload/session_model.h"
