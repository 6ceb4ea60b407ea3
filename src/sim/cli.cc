#include "sim/cli.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/logging.hh"

namespace secpb
{

unsigned
parseFlags(int argc, const char *const *argv, const char *prog,
           const std::vector<CliFlag> &flags, unsigned reads)
{
    std::vector<const CliFlag *> rows;
    for (const CliFlag &f : flags)
        if (!f.id || (f.id & reads))
            rows.push_back(&f);
    unsigned given = 0;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
            std::printf("Usage: %s [flags]\n", prog);
            for (const CliFlag *f : rows) {
                const std::string lhs =
                    f->arg ? std::string(f->name) + " " + f->arg : f->name;
                std::printf("  %-20s %s\n", lhs.c_str(), f->help.c_str());
            }
            std::exit(0);
        }
        const CliFlag *row = nullptr;
        for (const CliFlag *f : rows)
            if (!std::strcmp(a, f->name))
                row = f;
        fatal_if(!row, "%s: unknown flag '%s' (try --help)", prog, a);
        const char *value = nullptr;
        if (row->arg) {
            fatal_if(i + 1 >= argc, "%s: flag %s needs a value", prog, a);
            value = argv[++i];
        }
        row->set((std::string(prog) + ": " + row->name).c_str(), value);
        given |= row->id;
    }
    return given;
}

} // namespace secpb
