/**
 * @file
 * Tests of the common infrastructure: logging, units, tables.
 */

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.hpp"
#include "common/flags.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace softrec {
namespace {

std::vector<std::pair<log::Level, std::string>> captured;

void
captureSink(log::Level level, const std::string &msg)
{
    captured.emplace_back(level, msg);
}

class LoggingCapture : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        captured.clear();
        previous_ = log::setSink(captureSink);
    }
    void TearDown() override { log::setSink(previous_); }

  private:
    log::Sink previous_ = nullptr;
};

TEST(Strprintf, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
    EXPECT_EQ(strprintf("%.2f", 3.14159), "3.14");
    EXPECT_EQ(strprintf("%s", "plain"), "plain");
    EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(Strprintf, HandlesLongStrings)
{
    const std::string big(5000, 'x');
    EXPECT_EQ(strprintf("%s!", big.c_str()).size(), big.size() + 1);
}

TEST_F(LoggingCapture, InformAndWarnRouteThroughSink)
{
    inform("hello %d", 7);
    warn("careful %s", "there");
    ASSERT_EQ(captured.size(), 2u);
    EXPECT_EQ(captured[0].first, log::Level::Info);
    EXPECT_EQ(captured[0].second, "hello 7");
    EXPECT_EQ(captured[1].first, log::Level::Warn);
    EXPECT_EQ(captured[1].second, "careful there");
}

TEST_F(LoggingCapture, FatalThrowsRuntimeError)
{
    EXPECT_THROW(fatal("bad config %d", 3), std::runtime_error);
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0].first, log::Level::Fatal);
}

TEST_F(LoggingCapture, PanicThrowsLogicError)
{
    EXPECT_THROW(panic("internal bug"), std::logic_error);
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0].first, log::Level::Panic);
}

TEST_F(LoggingCapture, AssertMacroFiresOnlyWhenFalse)
{
    SOFTREC_ASSERT(1 + 1 == 2, "never printed");
    EXPECT_TRUE(captured.empty());
    EXPECT_THROW(SOFTREC_ASSERT(false, "value was %d", 9),
                 std::logic_error);
}

TEST(Units, FormatBytesPicksBinaryPrefixes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2048), "2.00 KiB");
    EXPECT_EQ(formatBytes(512 * MiB), "512.00 MiB");
    EXPECT_EQ(formatBytes(3 * GiB), "3.00 GiB");
}

TEST(Units, FormatSecondsPicksScale)
{
    EXPECT_EQ(formatSeconds(2.5), "2.500 s");
    EXPECT_EQ(formatSeconds(1.25e-3), "1.250 ms");
    EXPECT_EQ(formatSeconds(4e-6), "4.000 us");
    EXPECT_EQ(formatSeconds(5e-9), "5.0 ns");
}

TEST(Units, FormatRates)
{
    EXPECT_EQ(formatFlops(169e12), "169.0 TFLOPS");
    EXPECT_EQ(formatFlops(5e9), "5.0 GFLOPS");
    EXPECT_EQ(formatBandwidth(1555e9), "1555.0 GB/s");
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable table("Title");
    table.setHeader({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addSeparator();
    table.addRow({"b", "22"});
    const std::string out = table.render();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
    EXPECT_NE(out.find("| b     | 22    |"), std::string::npos);
    // Header, separator row, and frame rules all present.
    EXPECT_NE(out.find("+-------+-------+"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchPanics)
{
    TextTable table("t");
    table.setHeader({"a", "b"});
    EXPECT_THROW(table.addRow({"only-one"}), std::logic_error);
}

TEST(TextTable, RowBeforeHeaderPanics)
{
    TextTable table("t");
    EXPECT_THROW(table.addRow({"x"}), std::logic_error);
}

TEST(CsvWriter, RendersHeaderAndRows)
{
    CsvWriter csv;
    csv.setHeader({"model", "speedup"});
    csv.addRow({"BERT-large", "1.25"});
    csv.addRow({"GPT-Neo-1.3B", "1.12"});
    EXPECT_EQ(csv.render(),
              "model,speedup\nBERT-large,1.25\nGPT-Neo-1.3B,1.12\n");
    EXPECT_EQ(csv.rowCount(), 2u);
}

TEST(CsvWriter, QuotesSpecialCharacters)
{
    CsvWriter csv;
    csv.setHeader({"a", "b"});
    csv.addRow({"x,y", "he said \"hi\""});
    EXPECT_EQ(csv.render(),
              "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
}

TEST(CsvWriter, RowWidthMismatchPanics)
{
    CsvWriter csv;
    csv.setHeader({"a", "b"});
    EXPECT_THROW(csv.addRow({"only"}), std::logic_error);
    CsvWriter empty;
    EXPECT_THROW(empty.addRow({"x"}), std::logic_error);
}

TEST(CsvWriter, WritesAndReportsIoFailure)
{
    CsvWriter csv;
    csv.setHeader({"k", "v"});
    csv.addRow({"x", "1"});
    const std::string path = "/tmp/softrec_csv_test.csv";
    EXPECT_TRUE(csv.writeFile(path));
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "k,v");
    // Unwritable path warns and returns false instead of throwing.
    log::Sink prev = log::setSink([](log::Level, const std::string &) {});
    EXPECT_FALSE(csv.writeFile("/nonexistent/dir/file.csv"));
    log::setSink(prev);
}

class FlagsQuiet : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        previous_ =
            log::setSink([](log::Level, const std::string &) {});
    }
    void TearDown() override { log::setSink(previous_); }

  private:
    log::Sink previous_ = nullptr;
};

TEST_F(FlagsQuiet, ParsesAllForms)
{
    FlagParser flags;
    flags.addString("model", "bert", "model name");
    flags.addInt("seq-len", 4096, "length");
    flags.addBool("timeline", "print timeline");
    EXPECT_TRUE(flags.parse(
        {"--model=bigbird", "--seq-len", "2048", "--timeline", "pos"}));
    EXPECT_EQ(flags.getString("model"), "bigbird");
    EXPECT_EQ(flags.getInt("seq-len"), 2048);
    EXPECT_TRUE(flags.getBool("timeline"));
    ASSERT_EQ(flags.positional().size(), 1u);
    EXPECT_EQ(flags.positional()[0], "pos");
}

TEST_F(FlagsQuiet, DefaultsWhenUnset)
{
    FlagParser flags;
    flags.addString("gpu", "a100", "gpu");
    flags.addInt("batch", 1, "batch");
    flags.addBool("verbose", "chatty");
    EXPECT_TRUE(flags.parse({}));
    EXPECT_EQ(flags.getString("gpu"), "a100");
    EXPECT_EQ(flags.getInt("batch"), 1);
    EXPECT_FALSE(flags.getBool("verbose"));
}

TEST_F(FlagsQuiet, RejectsMalformedInput)
{
    FlagParser flags;
    flags.addInt("n", 0, "number");
    flags.addBool("b", "bool");
    EXPECT_FALSE(flags.parse({"--unknown", "1"}));
    FlagParser flags2;
    flags2.addInt("n", 0, "number");
    EXPECT_FALSE(flags2.parse({"--n", "abc"}));
    FlagParser flags3;
    flags3.addInt("n", 0, "number");
    EXPECT_FALSE(flags3.parse({"--n"})); // missing value
    FlagParser flags4;
    flags4.addBool("b", "bool");
    EXPECT_FALSE(flags4.parse({"--b=maybe"}));
    EXPECT_TRUE(FlagParser(flags4).parse({}));
}

TEST_F(FlagsQuiet, BoolExplicitValues)
{
    FlagParser flags;
    flags.addBool("x", "x");
    EXPECT_TRUE(flags.parse({"--x=false"}));
    EXPECT_FALSE(flags.getBool("x"));
    FlagParser flags2;
    flags2.addBool("x", "x");
    EXPECT_TRUE(flags2.parse({"--x=1"}));
    EXPECT_TRUE(flags2.getBool("x"));
}

TEST(Flags, UsageListsRegisteredFlags)
{
    FlagParser flags;
    flags.addString("model", "bert", "which model to run");
    flags.addInt("seq-len", 4096, "sequence length");
    const std::string usage = flags.usage();
    EXPECT_NE(usage.find("--model"), std::string::npos);
    EXPECT_NE(usage.find("which model to run"), std::string::npos);
    EXPECT_NE(usage.find("default 4096"), std::string::npos);
}

TEST(Flags, DuplicateRegistrationPanics)
{
    FlagParser flags;
    flags.addInt("n", 0, "n");
    EXPECT_THROW(flags.addString("n", "", "again"), std::logic_error);
}

} // namespace
} // namespace softrec
