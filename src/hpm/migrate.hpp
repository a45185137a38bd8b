// Stable public facade for driving migrations.
//
// This header is the supported surface for embedding hpm: one migration
// (`hpm::run_migration` / `hpm::Coordinator`), a fleet of concurrent
// migrations (`hpm::migrate_many`), and the option/report types they
// exchange. Everything is re-exported into the top-level `hpm` namespace
// so callers never name the internal layers.
//
// Examples, tools, and external embedders should include this (or
// hpm/hpm.hpp, which includes it) instead of reaching into
// mig/coordinator.hpp or mig/fleet.hpp — those internal headers stay
// source-compatible but their layout is NOT a stability boundary; only
// the names re-exported here are.
#pragma once

#include "mig/context.hpp"
#include "mig/coordinator.hpp"
#include "mig/fleet.hpp"

namespace hpm {

/// --- the migratable program's side ---------------------------------------
using mig::MigContext;
using mig::MigrationExit;

/// --- one migration -------------------------------------------------------
using mig::Coordinator;
using mig::MigrationOutcome;
using mig::MigrationReport;
using mig::RunOptions;
using mig::Transport;
using mig::WireCodec;
using mig::outcome_name;
using mig::run_migration;
using mig::run_routed_migration;

/// --- a fleet of migrations ----------------------------------------------
using mig::SessionJob;
using mig::SessionOutcome;
using mig::migrate_many;

}  // namespace hpm
