#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/error.h"
#include "common/parallel.h"

namespace crophe::cli {
namespace {

/** Build a mutable argv from literals (FlagParser takes char**). */
class Argv
{
  public:
    explicit Argv(std::initializer_list<const char *> args)
    {
        for (const char *a : args)
            store_.emplace_back(a);
        for (std::string &s : store_)
            ptrs_.push_back(s.data());
    }
    int argc() { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> store_;
    std::vector<char *> ptrs_;
};

TEST(FlagParser, ParsesEveryRegisteredShape)
{
    std::string out_file;
    u32 count = 0;
    bool flag = false;
    FlagParser p("test harness");
    p.addString("--out", "FILE", &out_file, "output file");
    p.addUint("--count", &count, "how many");
    p.addBool("--flag", &flag, "presence toggle");

    Argv a({"prog", "--count", "42", "--flag", "--out", "x.json"});
    EXPECT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(out_file, "x.json");
    EXPECT_EQ(count, 42u);
    EXPECT_TRUE(flag);
}

TEST(FlagParser, EmptyArgvParsesAndKeepsDefaults)
{
    std::string s = "default";
    FlagParser p;
    p.addString("--s", "TEXT", &s, "a string");
    Argv a({"prog"});
    EXPECT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(s, "default");
}

TEST(FlagParser, ParsesEqualsSyntaxForEveryValueKind)
{
    std::string out_file;
    u32 count = 0;
    double x = 0.0;
    FlagParser p;
    p.addString("--out", "FILE", &out_file, "output file");
    p.addUint("--count", &count, "how many");
    p.addDouble("--x", &x, "a real");

    Argv a({"prog", "--count=42", "--out=x.json", "--x=2.5"});
    EXPECT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(out_file, "x.json");
    EXPECT_EQ(count, 42u);
    EXPECT_EQ(x, 2.5);
}

TEST(FlagParser, EqualsSyntaxMixesWithSpaceSyntax)
{
    u32 a_val = 0, b_val = 0;
    FlagParser p;
    p.addUint("--a", &a_val, "first");
    p.addUint("--b", &b_val, "second");
    Argv a({"prog", "--a=1", "--b", "2"});
    EXPECT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(a_val, 1u);
    EXPECT_EQ(b_val, 2u);
}

TEST(FlagParser, EqualsValueMayBeEmptyOrContainEquals)
{
    std::string out = "default", spec;
    FlagParser p;
    p.addString("--out", "FILE", &out, "output file");
    p.addString("--spec", "SPEC", &spec, "key=value spec");
    Argv a({"prog", "--out=", "--spec=seed=7,rate=1e-3"});
    EXPECT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(out, "");
    EXPECT_EQ(spec, "seed=7,rate=1e-3");
}

TEST(FlagParser, BoolRejectsEqualsValue)
{
    FlagParser p;
    bool b = false;
    p.addBool("--quick", &b, "presence toggle");
    Argv a({"prog", "--quick=1"});
    EXPECT_FALSE(p.parse(a.argc(), a.argv()));
    EXPECT_FALSE(b);
}

TEST(FlagParser, EqualsSyntaxRejectsMalformedNumber)
{
    FlagParser p;
    u32 n = 0;
    double x = 0.0;
    p.addUint("--n", &n, "a number");
    p.addDouble("--x", &x, "a real");
    Argv a({"prog", "--n=12abc"});
    EXPECT_FALSE(p.parse(a.argc(), a.argv()));
    Argv b({"prog", "--x="});
    EXPECT_FALSE(p.parse(b.argc(), b.argv()));
}

TEST(FlagParser, RejectsUnknownFlag)
{
    FlagParser p;
    bool flag = false;
    p.addBool("--known", &flag, "known flag");
    Argv a({"prog", "--unknown"});
    EXPECT_FALSE(p.parse(a.argc(), a.argv()));
}

TEST(FlagParser, RejectsMissingValue)
{
    FlagParser p;
    std::string s;
    p.addString("--out", "FILE", &s, "output file");
    Argv a({"prog", "--out"});
    EXPECT_FALSE(p.parse(a.argc(), a.argv()));
}

TEST(FlagParser, RejectsMalformedNumber)
{
    // Signs and out-of-range values once slipped through strtoul: "-1"
    // wrapped to 4294967295 (a --threads value that allocates workers
    // until memory runs out) and 2^32+1 truncated to 1.
    for (const char *bad : {"12abc", "", "-1", "+3", "-0", " 4", "4 ",
                            "0x10", "4294967296", "4294967297",
                            "18446744073709551615",
                            "99999999999999999999999"}) {
        FlagParser p;
        u32 n = 7;
        p.addUint("--n", &n, "a number");
        Argv a({"prog", "--n", bad});
        EXPECT_FALSE(p.parse(a.argc(), a.argv())) << '"' << bad << '"';
        EXPECT_EQ(n, 7u) << '"' << bad << '"';
    }
}

TEST(FlagParser, UintAcceptsTheWholeU32Range)
{
    FlagParser p;
    u32 lo = 7, hi = 0, padded = 0;
    p.addUint("--lo", &lo, "low");
    p.addUint("--hi", &hi, "high");
    p.addUint("--padded", &padded, "leading zeros");
    Argv a({"prog", "--lo", "0", "--hi=4294967295", "--padded", "0042"});
    ASSERT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 4294967295u);
    EXPECT_EQ(padded, 42u);
}

TEST(FlagParser, ThreadsAboveTheCapFailTheParse)
{
    // A well-formed but huge --threads would allocate workers until
    // memory runs out; the parse fails and the pool stays as it was.
    const u32 before = ThreadPool::globalThreads();
    for (const std::string &bad :
         {std::to_string(kMaxThreads + 1), std::string("4000000000"),
          std::string("4294967295")}) {
        FlagParser p;
        p.addThreadsFlag();
        Argv a({"prog", "--threads", bad.c_str()});
        EXPECT_FALSE(p.parse(a.argc(), a.argv())) << bad;
        EXPECT_EQ(ThreadPool::globalThreads(), before) << bad;
    }
}

TEST(FlagParser, RejectsPositionalArgument)
{
    FlagParser p;
    Argv a({"prog", "stray"});
    EXPECT_FALSE(p.parse(a.argc(), a.argv()));
}

TEST(FlagParser, UsageListsFlagsAndSummary)
{
    FlagParser p("the summary line");
    std::string s;
    u32 n = 0;
    bool b = false;
    std::string dir;
    p.addString("--out", "FILE", &s, "output file");
    p.addString("--cache", "DIR", &dir, "cache directory");
    p.addUint("--n", &n, "a number");
    p.addBool("--quick", &b, "skip the slow part");
    p.addThreadsFlag();

    std::ostringstream os;
    p.printUsage("prog", os);
    std::string usage = os.str();
    EXPECT_NE(usage.find("the summary line"), std::string::npos);
    EXPECT_NE(usage.find("[--out FILE]"), std::string::npos);
    // Each string flag shows its own value name, not a blanket FILE.
    EXPECT_NE(usage.find("[--cache DIR]"), std::string::npos);
    EXPECT_NE(usage.find("  --cache DIR"), std::string::npos);
    EXPECT_NE(usage.find("--n N"), std::string::npos);
    EXPECT_NE(usage.find("[--quick]"), std::string::npos);
    EXPECT_NE(usage.find("--threads N"), std::string::npos);
    EXPECT_NE(usage.find("skip the slow part"), std::string::npos);
}

/** Parse @p args with stdout routed to stderr (where death-test regexes
 *  look) and stderr itself silenced, so a match proves stdout output. */
void
parseWithStdoutVisible(FlagParser &p, std::initializer_list<const char *> args)
{
    Argv a(args);
    std::cout.rdbuf(std::cerr.rdbuf());
    std::cerr.rdbuf(nullptr);
    p.parse(a.argc(), a.argv());
}

TEST(FlagParserDeath, HelpPrintsUsageToStdoutAndExitsZero)
{
    for (const char *help : {"--help", "-h"}) {
        SCOPED_TRACE(help);
        FlagParser p("the summary line");
        std::string s;
        p.addString("--plan-cache", "DIR", &s, "cache directory");
        EXPECT_EXIT(parseWithStdoutVisible(p, {"prog", help}),
                    testing::ExitedWithCode(0),
                    "usage: prog \\[--plan-cache DIR\\]");
        EXPECT_EXIT(parseWithStdoutVisible(p, {"prog", "--plan-cache", "d",
                                               help}),
                    testing::ExitedWithCode(0), "the summary line");
    }
}

TEST(DomainChecks, RequirePositiveDouble)
{
    EXPECT_NO_THROW(requirePositive("--rate", 0.5));
    EXPECT_THROW(requirePositive("--rate", 0.0), RecoverableError);
    EXPECT_THROW(requirePositive("--rate", -1.0), RecoverableError);
}

TEST(DomainChecks, RequirePositiveUint)
{
    EXPECT_NO_THROW(requirePositive("--tenants", 1u));
    EXPECT_NO_THROW(requirePositive("--tenants", 1000u));
    EXPECT_THROW(requirePositive("--tenants", 0u), RecoverableError);
}

TEST(DomainChecks, RequireNonNegativeDouble)
{
    EXPECT_NO_THROW(requireNonNegative("--plan-ms", 0.0));
    EXPECT_NO_THROW(requireNonNegative("--plan-ms", 3.5));
    EXPECT_THROW(requireNonNegative("--plan-ms", -0.1), RecoverableError);
}

TEST(DomainChecks, ErrorNamesTheOffendingFlag)
{
    try {
        requirePositive("--max-batch", 0u);
        FAIL() << "expected RecoverableError";
    } catch (const RecoverableError &e) {
        EXPECT_NE(std::string(e.what()).find("--max-batch"),
                  std::string::npos);
    }
    try {
        requirePositive("--arrival-rate", -2.0);
        FAIL() << "expected RecoverableError";
    } catch (const RecoverableError &e) {
        EXPECT_NE(std::string(e.what()).find("--arrival-rate"),
                  std::string::npos);
    }
}

}  // namespace
}  // namespace crophe::cli
