// Umbrella header: the whole Microscope public API.
//
//   #include "microscope/microscope.hpp"
//
// Layers (bottom-up):
//   common/     time, flows, packets, RNG, stats
//   obs/        self-observability: metrics registry + exporters
//   sim/        discrete-event simulator
//   nf/         NFV dataplane: queues, NAT/Firewall/Monitor/VPN, traffic,
//               topologies, fault injection, calibration
//   collector/  runtime record collection (batch timestamps, IPIDs)
//   trace/      cross-NF trace reconstruction (IPID disambiguation)
//   core/       queuing-period diagnosis: local, propagation, recursion
//   autofocus/  causal pattern aggregation (hierarchical heavy hitters)
//   sketch/     bounded-memory aggregation: count-min sketch + heavy-
//               hitter pattern table under a byte budget (the
//               SketchAggregator is built into the online library)
//   online/     streaming diagnosis: windows, watermarks, live aggregation
//               (one culprit board for both aggregators), one analysis
//               pool sized by OnlineOptions::threads
//   netmedic/   the time-window-correlation baseline
//   eval/       paper scenarios, experiment runner, oracle, reports
#pragma once

#include "common/flow.hpp"
#include "common/packet.hpp"
#include "common/prefix.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"

#include "obs/build_info.hpp"
#include "obs/health.hpp"
#include "obs/http.hpp"
#include "obs/introspect.hpp"
#include "obs/metrics.hpp"
#include "obs/tracing.hpp"

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

#include "collector/collector.hpp"
#include "collector/file.hpp"
#include "collector/records.hpp"
#include "collector/ring.hpp"
#include "collector/wire.hpp"

#include "nf/calibrate.hpp"
#include "nf/generate.hpp"
#include "nf/inject.hpp"
#include "nf/nf.hpp"
#include "nf/nf_types.hpp"
#include "nf/queue.hpp"
#include "nf/source.hpp"
#include "nf/topology.hpp"
#include "nf/traffic.hpp"

#include "trace/align.hpp"
#include "trace/graph.hpp"
#include "trace/reconstruct.hpp"
#include "trace/verify.hpp"

#include "core/diagnosis.hpp"
#include "core/period.hpp"
#include "core/provenance.hpp"
#include "core/relation.hpp"
#include "core/timespan.hpp"

#include "autofocus/aggregate.hpp"
#include "autofocus/hhh.hpp"
#include "autofocus/hierarchy.hpp"

#include "sketch/countmin.hpp"
#include "sketch/sketch_aggregator.hpp"

#include "online/aggregator.hpp"
#include "online/engine.hpp"
#include "online/replay.hpp"
#include "online/stream_store.hpp"
#include "online/window.hpp"

#include "netmedic/netmedic.hpp"

#include "eval/experiment.hpp"
#include "eval/json.hpp"
#include "eval/oracle.hpp"
#include "eval/report.hpp"
#include "eval/scenarios.hpp"
