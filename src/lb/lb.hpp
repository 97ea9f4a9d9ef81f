// Umbrella header: the full public API of diffusionlb.
//
// Fine-grained includes are preferred in library code; this header is for
// applications and exploratory use.
#pragma once

// Substrate: utilities.
#include "lb/util/assert.hpp"
#include "lb/util/logging.hpp"
#include "lb/util/options.hpp"
#include "lb/util/rng.hpp"
#include "lb/util/stats.hpp"
#include "lb/util/table.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/util/timer.hpp"

// Substrate: linear algebra and spectral analysis.
#include "lb/linalg/csr.hpp"
#include "lb/linalg/dense.hpp"
#include "lb/linalg/lanczos.hpp"
#include "lb/linalg/spectral.hpp"
#include "lb/linalg/tridiag.hpp"

// Substrate: networks.
#include "lb/graph/dynamic.hpp"
#include "lb/graph/generators.hpp"
#include "lb/graph/graph.hpp"
#include "lb/graph/matching.hpp"
#include "lb/graph/properties.hpp"

// Core: the paper's algorithms, analysis toolkit, bounds and engine.
#include "lb/core/algorithm.hpp"
#include "lb/core/async.hpp"
#include "lb/core/bounds.hpp"
#include "lb/core/diffusion.hpp"
#include "lb/core/dimension_exchange.hpp"
#include "lb/core/divergence.hpp"
#include "lb/core/dynamic_runner.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/flow_ledger.hpp"
#include "lb/core/fos.hpp"
#include "lb/core/heterogeneous.hpp"
#include "lb/core/load.hpp"
#include "lb/core/metrics.hpp"
#include "lb/core/ops.hpp"
#include "lb/core/random_partner.hpp"
#include "lb/core/sequential.hpp"
#include "lb/core/sos.hpp"
#include "lb/core/trace.hpp"

// Workload generators.
#include "lb/workload/initial.hpp"

// Experiment campaigns: declarative grids over (graph x scenario x
// workload x balancer x scalar x seed), executed with per-cell run
// isolation and per-base artifact reuse.
#include "lb/exp/campaign.hpp"
#include "lb/exp/plan.hpp"
#include "lb/exp/report.hpp"
