#ifndef CROPHE_COMMON_CLI_H_
#define CROPHE_COMMON_CLI_H_

/**
 * @file
 * Minimal shared command-line flag parser for the benchmark and example
 * harnesses. Replaces the per-binary strcmp loops: flags are registered
 * with a destination and a help line, usage text is generated from the
 * registrations, and unknown flags (or flags missing their value) print
 * the usage and fail parsing instead of being silently ignored.
 *
 * Supported shapes: `--flag VALUE` and `--flag=VALUE` (string /
 * numeric) and presence-only `--flag` (bool, which rejects `=`).
 * Parsing is strict and order-independent; `--help` / `-h` is built in.
 */

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.h"

namespace crophe::cli {

/** Registration-driven argv parser (see file doc). */
class FlagParser
{
  public:
    /** @param summary one-line description printed above the flag list. */
    explicit FlagParser(std::string summary = "");

    /** `--name VALUE`: any string; @p value_name (FILE, DIR, SPEC, ...)
     *  stands for VALUE in the usage text. @{ */
    void addString(const std::string &name, const std::string &value_name,
                   std::string *out, const std::string &help);
    /** `--name N`: base-10 u32 (see parseU32). Parsing fails on anything
     *  else, including a sign and values above UINT32_MAX. */
    void addUint(const std::string &name, u32 *out, const std::string &help);
    /** `--name X`: floating point. Parsing fails on non-numeric input. */
    void addDouble(const std::string &name, double *out,
                   const std::string &help);
    /** `--name` (no value): sets *out to true. */
    void addBool(const std::string &name, bool *out, const std::string &help);
    /** @} */

    /**
     * Convenience: register the conventional `--threads N` flag, which on
     * parse() sizes the process-wide thread pool (ThreadPool). Results are
     * bit-identical for any N (DESIGN.md §7); only wall-clock changes.
     * N above kMaxThreads fails the parse with the usage message.
     */
    void addThreadsFlag();

    /**
     * Parse argv[1..argc). On an unknown flag, a missing value, or a
     * malformed number, prints an error plus the usage to stderr and
     * returns false — callers should exit non-zero. `--help` or `-h`
     * prints the usage to stdout and exits the process with status 0.
     */
    bool parse(int argc, char **argv);

    /** Auto-generated usage text (also printed on parse failure). */
    void printUsage(const char *argv0, std::ostream &os) const;

  private:
    enum class Kind : u8
    {
        String,
        Uint,
        Double,
        Bool,
    };
    struct Flag
    {
        std::string name;
        Kind kind;
        void *out;
        std::string help;
        std::string valueName;  ///< usage placeholder; empty for Bool
    };

    bool fail(const char *argv0, const std::string &message) const;

    std::string summary_;
    std::vector<Flag> flags_;
    bool wantThreads_ = false;
    u32 threads_ = 0;
};

/**
 * Strict base-10 u64: one or more digits and nothing else — no sign, no
 * whitespace — with a value of at most UINT64_MAX. Returns nullopt
 * otherwise, so "-1" can never wrap to 2^64-1 and an overflow never
 * saturates. Behind the FaultPlan integer keys and parseU32.
 */
std::optional<u64> parseU64(const char *text);

/**
 * parseU64 limited to UINT32_MAX. The one parser behind FlagParser's u32
 * flags and the CROPHE_THREADS variable, so "4294967297" can never
 * truncate to 1.
 */
std::optional<u32> parseU32(const char *text);

/**
 * Domain checks for parsed flag values (DESIGN.md §9 error contract):
 * each throws crophe::RecoverableError naming the offending flag, so
 * harnesses can reject nonsensical inputs (`--arrival-rate 0`,
 * `--tenants 0`) at startup with a typed error plus their usage text
 * instead of letting the value reach the dispatcher. @{
 */
void requirePositive(const std::string &flag, double value);
void requirePositive(const std::string &flag, u32 value);
void requireNonNegative(const std::string &flag, double value);
/** @} */

}  // namespace crophe::cli

#endif  // CROPHE_COMMON_CLI_H_
