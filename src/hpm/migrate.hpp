// The public header of hpm: the one include an embedder needs.
//
// It covers the migratable program's side (MigContext and the annotation
// macros of mig/annotate.hpp), one migration (`hpm::run_migration`),
// concurrent migrations each on its own channels (`hpm::migrate_many`),
// crash recovery from the intent journals (`hpm::recover`), and the
// option/report types they exchange. Everything is re-exported into the
// top-level `hpm` namespace so callers never name the internal layers.
//
// The internal headers this one includes (mig/coordinator.hpp,
// mig/fleet.hpp, mig/journal.hpp, ...) may be reorganized freely; only
// the names re-exported here are a stability boundary. Code that drives
// an internal unit directly (a test of SessionWiring or Journal::replay,
// a tool that dumps streams) includes that unit's header as well.
#pragma once

#include "mig/annotate.hpp"
#include "mig/context.hpp"
#include "mig/coordinator.hpp"
#include "mig/fleet.hpp"
#include "mig/journal.hpp"

namespace hpm {

/// --- the migratable program's side ---------------------------------------
using mig::MigContext;
using mig::MigrationExit;

/// --- one migration -------------------------------------------------------
using mig::MigrationOutcome;
using mig::MigrationReport;
using mig::RunOptions;
using mig::Transport;
using mig::WireCodec;
using mig::outcome_name;
using mig::run_migration;

/// --- concurrent migrations ----------------------------------------------
using mig::SessionJob;
using mig::SessionOutcome;
using mig::migrate_many;

/// --- crash recovery ------------------------------------------------------
using mig::RecoveryVerdict;
using mig::TxnOwner;
using mig::recover;
using mig::txn_owner_name;

}  // namespace hpm
