// run_sweep: the scenario-matrix campaign runner over a trace lake.
//
// A sweep evaluates a matrix of policy arms (fixed schemes and/or
// adaptive --select policies) x lake members (each at its own
// geometry), streaming every cell out of the lake through a Session
// and emitting one consolidated JSON report: per-cell StreamStats
// totals, per-burst means, interface energy (when a PodParams is
// given) and the adaptive selection report. Output is deterministic —
// no timestamps, no throughput, fixed-precision numbers — so two runs
// over the same lake are byte-identical (the CI determinism gate).
//
// Evaluation is member-major: every member with an uncached payload
// cell is opened once per sweep through LakeReader::open_member (one
// whole-file CRC pass plus the catalog check), and every uncached arm
// runs over that one reader in its own Session. Cells are still
// emitted arm-major, so the report does not depend on the order of
// evaluation. A member rewritten after the catalog was opened fails
// the sweep with LakeError rather than being swept under its old
// record.
//
// Resumable per cell: with `cells_dir` set, every finished cell's JSON
// is persisted as its own file and reused verbatim on the next run,
// so an interrupted hours-scale campaign restarts where it stopped. A
// member whose cells are all cached is never opened.
#pragma once

#include <string>
#include <vector>

#include "api/session.hpp"
#include "lake/lake.hpp"
#include "power/pod_params.hpp"

namespace dbi::lake {

/// One row of the sweep matrix: a scheme policy under a label (the
/// cell key — keep it filesystem-safe; slugs like "ac" or
/// "select-exact").
struct SweepArm {
  std::string label;
  dbi::SchemePolicy policy;
  dbi::CostWeights weights{};  ///< parameterises kOpt / adaptive cost
};

struct SweepOptions {
  std::vector<SweepArm> arms;
  int lanes = 1;
  int threads = 0;  ///< per-cell session threads
  dbi::StatePolicy state_policy = dbi::StatePolicy::kThread;
  bool verify_crc = true;
  /// Non-null: report interface energy per burst for every cell.
  const power::PodParams* pod = nullptr;
  /// Non-empty: per-cell resume directory (created if missing).
  std::string cells_dir;
};

/// Runs the full arms x members matrix and returns the consolidated
/// JSON report. Encoded members become deterministic "skipped" cells
/// (replay re-encodes payload traces) and are never opened. Throws
/// LakeError (stale or unreadable member, cache I/O) / TraceError /
/// session errors on real failures.
[[nodiscard]] std::string run_sweep(const LakeReader& lake,
                                    const SweepOptions& options);

}  // namespace dbi::lake
