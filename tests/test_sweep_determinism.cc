/**
 * @file
 * The experiment engine's determinism contract: a 16-point sweep run at
 * --jobs 1 (inline, no threads) and --jobs 8 (thread pool) produces
 * byte-identical JSON modulo the host wall-clock fields. Also covers
 * submission-order aggregation, the engine's exception path, and that a
 * custom runner built from the point's spec reproduces the default one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "exp/report.hh"
#include "exp/sweep.hh"
#include "sim/logging.hh"
#include "stats/json.hh"

using namespace secpb;

namespace
{

/** 4 profiles x 4 schemes = the 16-point cross-product. */
std::vector<ExperimentPoint>
sixteenPoints()
{
    const char *profiles[] = {"gamess", "gcc", "mcf", "lbm"};
    const Scheme schemes[] = {Scheme::Bbb, Scheme::Cobcm, Scheme::Cm,
                              Scheme::NoGap};
    std::vector<ExperimentPoint> points;
    for (const char *prof : profiles) {
        for (Scheme s : schemes) {
            ExperimentPoint p = makePoint(s, prof);
            p.label = std::string(prof) + "/" + schemeName(s);
            p.spec.instructions = 3000;
            p.spec.seed = 99;
            points.push_back(std::move(p));
        }
    }
    return points;
}

SweepReport
runSweep(unsigned jobs)
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    SweepReport report;
    report.bench = "determinism_test";
    report.jobs = 0;  // Normalized: the comparison is about results.
    report.points = sixteenPoints();
    report.results = SweepRunner(opts).run(report.points);
    return report;
}

} // namespace

TEST(SweepDeterminism, Jobs1AndJobs8ProduceByteIdenticalJson)
{
    setQuietLogging(true);
    const std::string serial = sweepJsonDeterministic(runSweep(1));
    const std::string parallel = sweepJsonDeterministic(runSweep(8));

    // Byte-identical modulo wall-clock: sweepJsonDeterministic blanks
    // exactly the host_seconds values and nothing else.
    EXPECT_EQ(serial, parallel);

    // Sanity: the projection actually contains measured data.
    EXPECT_NE(serial.find("\"exec_ticks\":"), std::string::npos);
    EXPECT_NE(serial.find("\"label\": \"lbm/nogap\""), std::string::npos);
}

TEST(SweepDeterminism, OnlyHostSecondsAreBlanked)
{
    setQuietLogging(true);
    const SweepReport report = runSweep(2);
    std::ostringstream raw;
    writeSweepJson(raw, report);
    const std::string projected = sweepJsonDeterministic(report);

    // Same line count; lines differ only where host_seconds appears.
    std::istringstream a(raw.str()), b(projected);
    std::string la, lb;
    while (std::getline(a, la)) {
        ASSERT_TRUE(static_cast<bool>(std::getline(b, lb)));
        if (la != lb) {
            EXPECT_NE(la.find("host_seconds"), std::string::npos)
                << "unexpected nondeterministic line: " << la;
        }
    }
    EXPECT_FALSE(static_cast<bool>(std::getline(b, lb)));
}

TEST(SweepRunner, ResultsAggregateInSubmissionOrder)
{
    // Custom points that complete in reverse submission order must still
    // land in submission-order slots.
    std::vector<ExperimentPoint> points;
    for (int i = 0; i < 12; ++i) {
        ExperimentPoint p;
        p.label = "p" + std::to_string(i);
        p.custom = [i](const ExperimentPoint &) {
            ExperimentResult r;
            r.sim.execTicks = static_cast<std::uint64_t>(i);
            return r;
        };
        points.push_back(std::move(p));
    }
    SweepOptions opts;
    opts.jobs = 4;
    opts.progress = false;
    const auto results = SweepRunner(opts).run(points);
    ASSERT_EQ(results.size(), 12u);
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].sim.execTicks, i);
}

TEST(SweepRunner, PointExceptionPropagatesAfterSweepCompletes)
{
    std::atomic<int> completed{0};
    std::vector<ExperimentPoint> points;
    for (int i = 0; i < 8; ++i) {
        ExperimentPoint p;
        p.label = "p" + std::to_string(i);
        p.custom = [i, &completed](const ExperimentPoint &) {
            if (i == 3)
                throw std::runtime_error("point 3 exploded");
            ++completed;
            return ExperimentResult{};
        };
        points.push_back(std::move(p));
    }
    SweepOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    EXPECT_THROW(SweepRunner(opts).run(points), std::runtime_error);
    // Every other queued point still ran before the rethrow.
    EXPECT_EQ(completed.load(), 7);
}

TEST(Experiment, CustomRunnerFromSpecMatchesDefault)
{
    setQuietLogging(true);
    auto json = [](const auto &emit) {
        std::ostringstream ss;
        JsonWriter w(ss, /*pretty=*/false);
        emit(w);
        return ss.str();
    };
    ExperimentPoint profile_point = makePoint(Scheme::Cm, "gcc");
    ExperimentPoint wal_point = makePoint(Scheme::Cobcm, "");
    wal_point.spec.workload = "kv_wal:keys=256";
    for (ExperimentPoint p : {profile_point, wal_point}) {
        SCOPED_TRACE(p.spec.workload.empty() ? p.profile : p.spec.workload);
        p.spec.instructions = 4000;
        p.spec.seed = 3;
        p.captureStats = true;
        const ExperimentResult def = runExperimentPoint(p);

        p.custom = [&json](const ExperimentPoint &pt) {
            Simulation sim(pt.spec);
            const auto gen = pointWorkload(pt);
            ExperimentResult r;
            r.sim = sim.run(*gen);
            r.statsJson =
                json([&](JsonWriter &w) { sim.stats().toJson(w); });
            return r;
        };
        const ExperimentResult custom = runExperimentPoint(p);

        EXPECT_GT(def.sim.persists, 0u);
        EXPECT_EQ(json([&](JsonWriter &w) { def.sim.toJson(w); }),
                  json([&](JsonWriter &w) { custom.sim.toJson(w); }));
        EXPECT_EQ(def.statsJson, custom.statsJson);
    }
}
