// Robustness: parsers must reject malformed input with ParseError — never
// crash, hang or accept garbage — across randomized mutations of valid
// inputs and raw random bytes. The serve job protocol, which reads from a
// socket, must answer every line with an ok or parse/config error reply.
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "phylo/newick.h"
#include "rng/mt19937.h"
#include "seq/fasta.h"
#include "seq/nexus.h"
#include "seq/phylip.h"
#include "seq/seqgen.h"
#include "serve/json_mini.h"
#include "serve/serve.h"
#include "util/error.h"

namespace mpcgs {
namespace {

const char* kValidNewick = "((a:1.0,b:1.0):2.0,(c:1.5,d:1.5):1.5);";
const char* kValidPhylip = " 3 8\nalpha ACGTACGT\nbeta  ACGTACGA\ngamma TTGTACGT\n";
const char* kValidFasta = ">one\nACGTACGT\n>two\nTTGTACGA\n";
const char* kValidNexus =
    "#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=2 NCHAR=4;\nFORMAT DATATYPE=DNA;\n"
    "MATRIX\none ACGT\ntwo TGCA\n;\nEND;\n";

/// Either parses successfully or throws ParseError/InvariantError; any
/// other behaviour (other exception types, crash) fails the test.
template <class F>
void mustParseOrReject(F&& parse, const std::string& input) {
    try {
        parse(input);
    } catch (const Error&) {
        // expected rejection path
    }
}

std::string mutate(const std::string& base, std::mt19937& gen) {
    std::string s = base;
    std::uniform_int_distribution<int> op(0, 3);
    std::uniform_int_distribution<std::size_t> pos(0, s.empty() ? 0 : s.size() - 1);
    std::uniform_int_distribution<int> ch(32, 126);
    switch (op(gen)) {
        case 0:  // flip a character
            if (!s.empty()) s[pos(gen)] = static_cast<char>(ch(gen));
            break;
        case 1:  // delete a character
            if (!s.empty()) s.erase(pos(gen), 1);
            break;
        case 2:  // insert a character
            s.insert(pos(gen), 1, static_cast<char>(ch(gen)));
            break;
        case 3:  // truncate
            s.resize(pos(gen));
            break;
    }
    return s;
}

std::string randomBytes(std::mt19937& gen, std::size_t n) {
    std::uniform_int_distribution<int> ch(1, 255);
    std::string s;
    for (std::size_t i = 0; i < n; ++i) s += static_cast<char>(ch(gen));
    return s;
}

TEST(FuzzParsers, NewickSurvivesMutations) {
    std::mt19937 gen(1);
    for (int i = 0; i < 3000; ++i)
        mustParseOrReject([](const std::string& s) { fromNewick(s); }, mutate(kValidNewick, gen));
}

TEST(FuzzParsers, PhylipSurvivesMutations) {
    std::mt19937 gen(2);
    for (int i = 0; i < 3000; ++i)
        mustParseOrReject([](const std::string& s) { readPhylipString(s); },
                          mutate(kValidPhylip, gen));
}

TEST(FuzzParsers, FastaSurvivesMutations) {
    std::mt19937 gen(3);
    for (int i = 0; i < 3000; ++i)
        mustParseOrReject([](const std::string& s) { readFastaString(s); },
                          mutate(kValidFasta, gen));
}

TEST(FuzzParsers, NexusSurvivesMutations) {
    std::mt19937 gen(4);
    for (int i = 0; i < 3000; ++i)
        mustParseOrReject([](const std::string& s) { readNexusString(s); },
                          mutate(kValidNexus, gen));
}

TEST(FuzzParsers, AllSurviveRandomBytes) {
    std::mt19937 gen(5);
    for (int i = 0; i < 500; ++i) {
        const std::string junk = randomBytes(gen, 1 + (i % 400));
        mustParseOrReject([](const std::string& s) { fromNewick(s); }, junk);
        mustParseOrReject([](const std::string& s) { readPhylipString(s); }, junk);
        mustParseOrReject([](const std::string& s) { readFastaString(s); }, junk);
        mustParseOrReject([](const std::string& s) { readNexusString(s); }, junk);
    }
}

TEST(FuzzParsers, DeeplyNestedNewickDoesNotOverflow) {
    // 2000 nested clades: the parser must either handle or reject cleanly.
    std::string deep;
    for (int i = 0; i < 2000; ++i) deep += '(';
    deep += "a:1,b:1";
    for (int i = 0; i < 2000; ++i) deep += "):1,x:1";
    deep += ";";
    mustParseOrReject([](const std::string& s) { fromNewick(s); }, deep);
}

// --- The serve job protocol (serve/json_mini, ServeSession::handleLine) -----

/// A 6-sequence alignment: the session's state holds the first five, the
/// valid add_sequence line carries the sixth.
Alignment serveAlignment() {
    Mt19937 rng(61);
    const Genealogy g = simulateCoalescent(6, 1.0, rng);
    return simulateSequences(g, *makeF84(2.0, kUniformFreqs), {40, 1.0}, rng);
}

/// Every valid job line of the protocol.
std::vector<std::string> validJobLines(const Sequence& added) {
    return {
        "{\"job\":\"add_sequence\",\"name\":" + json_mini::quote(added.name()) +
            ",\"sequence\":\"" + added.toString() + "\"}",
        R"({"job":"estimate"})",
        R"({"job":"logz"})",
        R"({"job":"metrics"})",
        R"({"job":"metrics","format":"prometheus"})",
        R"({"job":"snapshot"})",
        R"({"job":"shutdown"})",
    };
}

/// A session over 16 particles with no state path (no checkpoint I/O).
ServeSession makeFuzzSession(const Alignment& aln) {
    SmcOptions smc;
    smc.particles = 16;
    OnlineState st = initOnlineState(
        Alignment(std::vector<Sequence>(aln.sequences().begin(), aln.sequences().end() - 1)),
        1.0, smc, "F81", 5);
    return ServeSession(std::move(st), "", OnlineOptions{});
}

/// handleLine must return an ok reply or a parse/config error reply and
/// must not throw.
void expectWellFormedReply(ServeSession& session, const std::string& line) {
    std::string reply;
    try {
        reply = session.handleLine(line);
    } catch (const std::exception& e) {
        ADD_FAILURE() << "handleLine threw '" << e.what() << "' on a " << line.size()
                      << "-byte line: " << line.substr(0, 200);
        return;
    }
    const bool ok = reply.rfind(R"({"ok":true,)", 0) == 0;
    const bool rejected = reply.rfind(R"({"ok":false,"kind":"parse",)", 0) == 0 ||
                          reply.rfind(R"({"ok":false,"kind":"config",)", 0) == 0;
    EXPECT_TRUE(ok || rejected) << "reply " << reply.substr(0, 200) << " to "
                                << line.substr(0, 200);
    if (ok) {
        EXPECT_NO_THROW(json_mini::parse(reply)) << reply.substr(0, 200);
    }
}

/// Inputs no mutation reaches: oversized, unterminated and deeply nested.
std::vector<std::string> edgeJobLines(const Sequence& added) {
    constexpr std::size_t kMiB = std::size_t{1} << 20;
    std::vector<std::string> lines = {
        "{\"job\":\"add_sequence\",\"name\":\"huge\",\"sequence\":\"" +
            std::string(kMiB, 'A') + "\"}",
        "{\"job\":\"" + std::string(kMiB, 'x') + "\"}",
        "{\"" + std::string(kMiB, 'k') + "\":1}",
        std::string(kMiB, ' '),
        std::string(kMiB, '{'),
        "{\"job\":\"add_sequence\",\"name\":\"open\",\"sequence\":\"" +
            added.toString(),
        R"({"job":"logz)",
        R"({"job":"logz")",
        R"({"job":"logz",)",
        R"({"job":"est\)",
        "{",
        "",
        "\"",
    };
    std::string nested;
    for (int i = 0; i < 100000; ++i) nested += "{\"a\":";
    lines.push_back(nested);
    lines.push_back(std::string(100000, '['));
    return lines;
}

TEST(FuzzServe, JsonParserSurvivesMutationsAndRandomBytes) {
    const Alignment aln = serveAlignment();
    std::mt19937 gen(6);
    for (const std::string& line : validJobLines(aln.sequences().back())) {
        EXPECT_NO_THROW(json_mini::parse(line)) << line;
        for (int i = 0; i < 1000; ++i)
            mustParseOrReject([](const std::string& s) { json_mini::parse(s); },
                              mutate(line, gen));
    }
    for (int i = 0; i < 500; ++i)
        mustParseOrReject([](const std::string& s) { json_mini::parse(s); },
                          randomBytes(gen, 1 + (i % 400)));
    for (const std::string& line : edgeJobLines(aln.sequences().back()))
        mustParseOrReject([](const std::string& s) { json_mini::parse(s); }, line);
}

TEST(FuzzServe, EveryJobLineGetsAnOkOrErrorReply) {
    const Alignment aln = serveAlignment();
    ServeSession session = makeFuzzSession(aln);
    const std::vector<std::string> valid = validJobLines(aln.sequences().back());
    for (const std::string& line : valid) expectWellFormedReply(session, line);

    std::mt19937 gen(7);
    for (const std::string& line : valid)
        for (int i = 0; i < 150; ++i) expectWellFormedReply(session, mutate(line, gen));
    for (int i = 0; i < 300; ++i)
        expectWellFormedReply(session, randomBytes(gen, 1 + (i % 400)));
    for (const std::string& line : edgeJobLines(aln.sequences().back()))
        expectWellFormedReply(session, line);

    // The valid add landed (so did any mutation that only renamed it), and
    // the session still serves after all of it.
    EXPECT_GE(session.state().updates, 1u);
    const std::string reply = session.handleLine(R"({"job":"logz"})");
    EXPECT_EQ(reply.rfind(R"({"ok":true,"job":"logz",)", 0), 0u) << reply;
}

}  // namespace
}  // namespace mpcgs
