#include "exp/report.hh"

#include <sstream>

#include "sim/logging.hh"
#include "stats/json.hh"

namespace secpb
{

namespace
{

void
writePoint(JsonWriter &w, const ExperimentPoint &p,
           const ExperimentResult &r)
{
    w.beginObject();
    w.field("label", p.label);
    const SimulationSpec &spec = p.spec;
    w.field("scheme", schemeName(spec.base.scheme));
    w.field("profile", p.profile);
    if (!spec.workload.empty())
        w.field("workload", spec.workload);
    w.field("instructions", spec.instructions);
    w.field("secpb_entries", spec.base.secpb.numEntries);
    w.field("bmf", bmfModeName(spec.base.walker.bmfMode));
    w.field("seed", spec.seed);
    if (!p.tags.empty()) {
        w.key("tags");
        w.beginObject();
        for (const auto &[k, v] : p.tags)
            w.field(k, v);
        w.endObject();
    }
    w.key("result");
    r.sim.toJson(w);
    if (!r.extra.empty()) {
        w.key("extra");
        w.beginObject();
        for (const auto &[k, v] : r.extra)
            w.field(k, v);
        w.endObject();
    }
    if (!r.samples.empty()) {
        w.key("samples");
        r.samples.toJson(w);
    }
    if (!r.statsJson.empty()) {
        w.key("stats");
        w.rawValue(r.statsJson);
    }
    w.field("host_seconds", r.hostSeconds);
    w.endObject();
}

} // namespace

void
writeSweepJson(std::ostream &os, const SweepReport &report)
{
    panic_if(report.points.size() != report.results.size(),
             "sweep report has %zu points but %zu results",
             report.points.size(), report.results.size());

    JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    w.field("schema", "secpb.sweep");
    w.field("schema_version", std::uint64_t{2});
    w.field("bench", report.bench);
    w.field("jobs", report.jobs);
    w.field("host_seconds", report.hostSeconds);

    w.key("points");
    w.beginArray();
    for (std::size_t i = 0; i < report.points.size(); ++i)
        writePoint(w, report.points[i], report.results[i]);
    w.endArray();

    w.key("derived");
    w.beginArray();
    for (const DerivedRow &d : report.derived) {
        w.beginObject();
        w.field("name", d.name);
        w.field("group", d.group);
        w.field("value", d.value);
        w.endObject();
    }
    w.endArray();

    w.endObject();
}

std::string
sweepJsonDeterministic(const SweepReport &report)
{
    std::ostringstream ss;
    writeSweepJson(ss, report);
    // Blank the value of every host_seconds line, keeping line structure
    // so diffs of two projections still align with the raw documents.
    std::istringstream in(ss.str());
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        const auto pos = line.find("\"host_seconds\":");
        if (pos != std::string::npos) {
            const bool comma = !line.empty() && line.back() == ',';
            line.erase(pos + std::string("\"host_seconds\":").size());
            line += " 0";
            if (comma)
                line += ',';
        }
        out << line << '\n';
    }
    return out.str();
}

} // namespace secpb
