// Umbrella header for the hpm library: heterogeneous process migration
// after Chanchio & Sun, "Data Collection and Restoration for Heterogeneous
// Process Migration" (IPPS 2001).
//
// Layer map (paper §4):
//   1. transport       net/       channels, framing, link models
//   2. XDR             xdr/       canonical encoding, architecture models
//   3. MSRM            msrm/      Save/Restore pointer/variable engines
//      (+ MSR, MSRLT   msr/       blocks, lookup table, graph snapshots
//       + TI table     ti/        types, layouts, leaves)
//   4. application     mig/       annotation macros, contexts, coordinator
//
// Substrates beyond the paper's own stack:
//   memimg/   foreign-architecture memory images (heterogeneity on one box)
//   precc/    declaration parser + unsafe-feature checker + TI generator
//   apps/     the paper's three workloads as migratable programs
//   obs/      telemetry: metrics registry + trace spans (DESIGN.md §9)
#pragma once

#include "ckpt/checkpoint.hpp"
#include "ckpt/incremental.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/hexdump.hpp"
#include "common/rng.hpp"
#include "memimg/image_space.hpp"
#include "mig/annotate.hpp"
#include "mig/chunk_store.hpp"
#include "mig/context.hpp"
#include "hpm/migrate.hpp"
#include "mig/coordinator.hpp"
#include "mig/frame_router.hpp"
#include "mig/journal.hpp"
#include "mig/port.hpp"
#include "mig/session.hpp"
#include "msr/graph.hpp"
#include "msr/host_space.hpp"
#include "msr/msrlt.hpp"
#include "msr/resolve.hpp"
#include "msrm/collect.hpp"
#include "msrm/dump.hpp"
#include "msrm/execstate.hpp"
#include "msrm/restore.hpp"
#include "msrm/stream.hpp"
#include "net/factory.hpp"
#include "net/faulty_channel.hpp"
#include "net/file_channel.hpp"
#include "net/mem_channel.hpp"
#include "net/message.hpp"
#include "net/simnet.hpp"
#include "net/socket_channel.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "precc/codegen.hpp"
#include "precc/parser.hpp"
#include "ti/describe.hpp"
#include "ti/layout.hpp"
#include "ti/leaf.hpp"
#include "ti/table.hpp"
#include "xdr/arch.hpp"
#include "xdr/value.hpp"
#include "xdr/wire.hpp"
