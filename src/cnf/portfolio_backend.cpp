#include "cnf/backend.hpp"
#include "obs/trace.hpp"
#include "sat/portfolio.hpp"

#include <chrono>
#include <string>

namespace etcs::cnf {

namespace {

/// SatBackend implementation on top of the parallel portfolio solver.
/// Observability: every solve is wrapped in a "sat.portfolio.solve" span and
/// each worker's participation in a "sat.portfolio.worker" span on its own
/// thread (the Chrome trace tid separates the tracks). The caller's own
/// onWorkerStart/onWorkerFinish hooks still run, before the trace hooks.
class PortfolioBackend final : public SatBackend {
public:
    explicit PortfolioBackend(sat::PortfolioOptions options)
        : solver_([&options]() {
              options.onWorkerStart = [user = std::move(options.onWorkerStart)](int worker) {
                  if (user) {
                      user(worker);
                  }
                  if (obs::tracingEnabled()) {
                      obs::Tracer::begin("sat.portfolio.worker",
                                         "{\"worker\":" + std::to_string(worker) + "}");
                  }
              };
              options.onWorkerFinish = [user = std::move(options.onWorkerFinish)](
                                           int worker, SolveStatus status,
                                           const sat::SolverStats& stats) {
                  if (user) {
                      user(worker, status, stats);
                  }
                  if (obs::tracingEnabled()) {
                      obs::Tracer::counterValue(
                          ("sat.portfolio.worker" + std::to_string(worker) + ".conflicts")
                              .c_str(),
                          static_cast<double>(stats.conflicts));
                      obs::Tracer::end("sat.portfolio.worker");
                  }
              };
              return options;
          }()) {}

    Var addVariable() override { return solver_.addVariable(); }
    int numVariables() const override { return solver_.numVariables(); }
    std::size_t numClauses() const override { return solver_.numClauses(); }

    void addClause(std::span<const Literal> literals) override {
        solver_.addClause(literals);
    }

    SolveStatus solve(std::span<const Literal> assumptions) override {
        const obs::Span span("sat.portfolio.solve");
        const sat::PortfolioStats sharingBefore = solver_.stats();
        const auto start = std::chrono::steady_clock::now();
        const SolveStatus status = solver_.solve(assumptions);
        if (obs::logEnabled(obs::LogLevel::Debug)) {
            const double seconds =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                    .count();
            logSolve(sharingBefore, seconds, status);
        }
        return status;
    }

    bool modelValue(Literal l) const override {
        return solver_.modelValue(l) == sat::Value::True;
    }

    std::vector<Literal> conflictCore() const override { return solver_.conflictCore(); }

    const sat::SolverStats& stats() const override { return solver_.solverStats(); }

    bool setProgressCallback(sat::ProgressCallback callback,
                             std::uint64_t everyConflicts) override {
        solver_.options().onProgress = std::move(callback);
        solver_.options().progressInterval = std::max<std::uint64_t>(everyConflicts, 1);
        return true;
    }

    bool setProofWriter(sat::ProofWriter* proof) override {
        solver_.setProofWriter(proof);
        return true;
    }

    std::string name() const override {
        return "portfolio-cdcl(" + std::to_string(solver_.numThreads()) +
               (solver_.options().deterministic ? ",deterministic)" : ")");
    }

private:
    void logSolve(const sat::PortfolioStats& sharingBefore, double seconds,
                  SolveStatus status) const {
        const sat::PortfolioStats& sharing = solver_.stats();
        std::string fields = ",\"status\":\"";
        fields += status == SolveStatus::Sat     ? "sat"
                  : status == SolveStatus::Unsat ? "unsat"
                                                 : "unknown";
        fields += "\",\"seconds\":" + std::to_string(seconds);
        fields += ",\"threads\":" + std::to_string(solver_.numThreads());
        fields += ",\"winner\":" + std::to_string(sharing.lastWinner);
        fields += ",\"imported\":" +
                  std::to_string(sharing.importedClauses - sharingBefore.importedClauses);
        obs::log(obs::LogLevel::Debug, "sat", "portfolio solve finished", fields);
    }

    sat::PortfolioSolver solver_;
};

}  // namespace

std::unique_ptr<SatBackend> makePortfolioBackend(sat::PortfolioOptions options) {
    return std::make_unique<PortfolioBackend>(std::move(options));
}

std::unique_ptr<SatBackend> makePortfolioBackend(int threads) {
    sat::PortfolioOptions options;
    options.numThreads = threads;
    // Easy-instance gate (sat/portfolio.hpp): spend a short solo budget on
    // worker 0 before spawning the fleet, so trivially-SAT probes — frequent
    // in the optimization drivers' bound searches — skip the sharing and
    // cancellation overhead that can make a small portfolio slower than a
    // single solver.
    options.soloProbeConflicts = 4096;
    return makePortfolioBackend(std::move(options));
}

}  // namespace etcs::cnf
