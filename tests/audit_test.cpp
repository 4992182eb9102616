// Tests for the auditing pipeline (§4): JSON report content, the policy
// language, the Fig. 4 example, and the §5.1.3 liblzma-style supply-chain
// case study.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/audit/policy.h"
#include "src/audit/report.h"
#include "src/json/json.h"
#include "src/rtos.h"

namespace cheriot {
namespace {

EntryFn Nop() {
  return [](CompartmentCtx&, const std::vector<Capability>&) {
    return Capability();
  };
}

// An HTTP-client-flavoured image echoing Fig. 4: one NetAPI compartment and
// one legitimate client.
FirmwareImage HttpClientImage(bool backdoored_compressor) {
  ImageBuilder b("http-firmware");
  b.Compartment("NetAPI")
      .CodeSize(4096)
      .Export("network_socket_connect_tcp", Nop(), 512)
      .ImportMmio("ethernet", kEthernetMmioBase, kMmioRegionSize, true);
  b.Compartment("http_client")
      .CodeSize(8192)
      .AllocCap("http_quota", 16 * 1024)
      .ImportCompartment("NetAPI.network_socket_connect_tcp")
      .Export("fetch", Nop(), 1024);
  // A compression library dependency (the liblzma analog). A benign build
  // has no network dependency; the backdoored build quietly adds one.
  auto compressor = b.Compartment("compressor");
  compressor.CodeSize(20 * 1024).Export("decompress", Nop(), 512);
  if (backdoored_compressor) {
    compressor.ImportCompartment("NetAPI.network_socket_connect_tcp");
  }
  b.Thread("main", 1, 2048, 4, "http_client.fetch");
  return b.Build();
}

class AuditTest : public ::testing::Test {
 protected:
  json::Value ReportFor(bool backdoored) {
    machine_ = std::make_unique<Machine>();
    boot_ = Loader::Load(*machine_, HttpClientImage(backdoored));
    return audit::BuildReport(*boot_);
  }
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<BootInfo> boot_;
};

TEST_F(AuditTest, ReportContainsCompartmentStructure) {
  const json::Value report = ReportFor(false);
  EXPECT_EQ(report["firmware"].AsString(), "http-firmware");
  ASSERT_TRUE(report["compartments"].Has("http_client"));
  const auto& client = report["compartments"]["http_client"];
  ASSERT_EQ(client["imports"].size(), 2u);  // NetAPI call + allocation cap
  bool found_call = false;
  for (const auto& imp : client["imports"].AsArray()) {
    if (imp["kind"].AsString() == "call") {
      EXPECT_EQ(imp["compartment_name"].AsString(), "NetAPI");
      EXPECT_EQ(imp["function"].AsString(), "network_socket_connect_tcp");
      found_call = true;
    }
  }
  EXPECT_TRUE(found_call);
}

TEST_F(AuditTest, ReportRoundTripsThroughJson) {
  const std::string text = ReportFor(false).Dump(2);
  const json::Value parsed = json::Parse(text);
  EXPECT_EQ(parsed["firmware"].AsString(), "http-firmware");
  EXPECT_EQ(parsed["compartments"].size(), 3u);
  EXPECT_EQ(parsed["threads"].size(), 1u);
}

TEST_F(AuditTest, Fig4PolicySingleNetworkCaller) {
  // Fig. 4: "there must be only one caller to the network API".
  audit::PolicyEngine engine(ReportFor(false));
  EXPECT_TRUE(engine.CheckExpression(
      "count(compartments_calling(\"NetAPI.network_socket_connect_tcp\")) == 1"));
}

TEST_F(AuditTest, SupplyChainBackdoorDetected) {
  // §5.1.3: the backdoored compressor declares a new dependency on the
  // network API; the same policy that passed before now fails.
  audit::PolicyEngine engine(ReportFor(true));
  EXPECT_FALSE(engine.CheckExpression(
      "count(compartments_calling(\"NetAPI.network_socket_connect_tcp\")) == 1"));
  // The report names the culprit.
  const auto callers =
      engine.CompartmentsCalling("NetAPI.network_socket_connect_tcp");
  EXPECT_EQ(callers.size(), 2u);
  EXPECT_NE(std::find(callers.begin(), callers.end(), "compressor"),
            callers.end());
  // A pinpoint policy for the compressor compartment.
  EXPECT_FALSE(engine.CheckExpression("!calls(\"compressor\", \"NetAPI\")"));
}

TEST_F(AuditTest, MmioAccessIsAuditable) {
  audit::PolicyEngine engine(ReportFor(false));
  const auto importers = engine.ImportersOfMmio("ethernet");
  ASSERT_EQ(importers.size(), 1u);
  EXPECT_EQ(importers[0], "NetAPI");
  EXPECT_TRUE(engine.CheckExpression(
      "importers_of_mmio(\"ethernet\") == compartments_calling(\"NetAPI\") "
      "|| count(importers_of_mmio(\"ethernet\")) == 1"));
}

TEST_F(AuditTest, QuotaSumAgainstHeap) {
  audit::PolicyEngine engine(ReportFor(false));
  // System-wide property (§4): sum of all allocation-capability quotas must
  // not exceed the heap.
  EXPECT_TRUE(engine.CheckExpression("allocation_quota_sum() <= heap_size()"));
  EXPECT_EQ(std::get<int64_t>(engine.Eval("allocation_quota_sum()")),
            16 * 1024);
}

TEST_F(AuditTest, PolicyDocumentReportsViolationsWithLines) {
  audit::PolicyEngine engine(ReportFor(true));
  const std::string policy = R"(
# Network access policy
count(compartments_calling("NetAPI.network_socket_connect_tcp")) == 1
allocation_quota_sum() <= heap_size()
compartment_exists("http_client")
)";
  const auto violations = engine.CheckDocument(policy);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].line, 3);
  EXPECT_EQ(violations[0].reason, "evaluated to false");
}

TEST_F(AuditTest, PolicyLanguageOperators) {
  audit::PolicyEngine engine(ReportFor(false));
  EXPECT_TRUE(engine.CheckExpression("1 + 2 == 3"));
  EXPECT_TRUE(engine.CheckExpression("(2 > 1) && (3 <= 3)"));
  EXPECT_TRUE(engine.CheckExpression("!false || false"));
  EXPECT_TRUE(engine.CheckExpression("\"a\" != \"b\""));
  EXPECT_TRUE(engine.CheckExpression(
      "contains(compartments(), \"NetAPI\")"));
  EXPECT_TRUE(engine.CheckExpression(
      "count(threads_entering(\"http_client\")) == 1"));
  EXPECT_TRUE(engine.CheckExpression("code_size(\"compressor\") == 20_480"));
  EXPECT_THROW(engine.Eval("undefined_fn()"), std::runtime_error);
  EXPECT_THROW(engine.Eval("1 +"), std::runtime_error);
  EXPECT_THROW(engine.Eval("count(1)"), std::runtime_error);
}

TEST_F(AuditTest, TransitiveReachabilityBuiltins) {
  // reachable()/paths_to() close over the authority graph: http_client holds
  // no MMIO import, yet it reaches the NIC through NetAPI's export — the
  // confused-deputy relation flat queries cannot express.
  audit::PolicyEngine clean(ReportFor(false));
  EXPECT_TRUE(clean.CheckExpression(
      "reachable(\"http_client\", \"mmio:ethernet\")"));
  EXPECT_TRUE(clean.CheckExpression(
      "!reachable(\"compressor\", \"mmio:ethernet\")"));
  EXPECT_TRUE(clean.CheckExpression(
      "contains(paths_to(\"mmio:ethernet\"), "
      "\"http_client -> NetAPI -> mmio:ethernet\")"));
  EXPECT_TRUE(clean.CheckExpression("count(paths_to(\"mmio:ethernet\")) == 2"));

  // The backdoored compressor reaches the NIC; the same one-line policy
  // that passed above now fails.
  audit::PolicyEngine bad(ReportFor(true));
  EXPECT_FALSE(bad.CheckExpression(
      "!reachable(\"compressor\", \"mmio:ethernet\")"));
  EXPECT_TRUE(bad.Reachable("compressor", "mmio:ethernet"));
}

TEST_F(AuditTest, PolicySetOperations) {
  audit::PolicyEngine engine(ReportFor(false));
  EXPECT_TRUE(engine.CheckExpression(
      "count(union(compartments_calling(\"NetAPI.network_socket_connect_tcp\"),"
      " importers_of_mmio(\"ethernet\"))) == 2"));
  EXPECT_TRUE(engine.CheckExpression(
      "count(intersect(compartments(), importers_of_mmio(\"ethernet\"))) == 1"));
  EXPECT_TRUE(engine.CheckExpression(
      "count(difference(compartments(), importers_of_mmio(\"ethernet\"))) == 2"));
  EXPECT_TRUE(engine.CheckExpression(
      "contains(difference(compartments(), importers_of_mmio(\"ethernet\")), "
      "\"compressor\")"));
  // union deduplicates.
  EXPECT_TRUE(engine.CheckExpression(
      "count(union(compartments(), compartments())) == count(compartments())"));
}

TEST_F(AuditTest, PolicyQuantifiers) {
  audit::PolicyEngine engine(ReportFor(false));
  EXPECT_TRUE(engine.CheckExpression(
      "forall(c, compartments(), code_size(c) > 0)"));
  EXPECT_TRUE(engine.CheckExpression(
      "exists(c, compartments(), calls(c, \"NetAPI\"))"));
  EXPECT_FALSE(engine.CheckExpression(
      "forall(c, compartments(), calls(c, \"NetAPI\"))"));
  // The bound variable composes with the graph builtins.
  EXPECT_TRUE(engine.CheckExpression(
      "forall(c, importers_of_mmio(\"ethernet\"), "
      "reachable(c, \"mmio:ethernet\"))"));
  // Quantifiers over an empty domain: forall is vacuously true, exists false.
  EXPECT_TRUE(engine.CheckExpression(
      "forall(c, importers_of_mmio(\"nope\"), false)"));
  EXPECT_FALSE(engine.CheckExpression(
      "exists(c, importers_of_mmio(\"nope\"), true)"));
  // Malformed quantifiers are parse errors, not crashes.
  EXPECT_THROW(engine.Eval("forall(c, compartments())"), std::runtime_error);
  EXPECT_THROW(engine.Eval("exists(, compartments(), true)"),
               std::runtime_error);
}

TEST_F(AuditTest, ParseErrorsCarryLineColumnAndSourceText) {
  audit::PolicyEngine engine(ReportFor(false));
  // A 10-line policy document with one malformed line.
  const std::string policy =
      "# integration policy (10 lines)\n"
      "count(compartments()) == 3\n"
      "forall(c, compartments(), code_size(c) > 0)\n"
      "  1 + + 2\n"
      "!reachable(\"compressor\", \"mmio:ethernet\")\n"
      "exists(c, compartments(), calls(c, \"NetAPI\"))\n"
      "# heap accounting\n"
      "allocation_quota_sum() <= heap_size()\n"
      "contains(paths_to(\"mmio:ethernet\"), "
      "\"http_client -> NetAPI -> mmio:ethernet\")\n"
      "count(importers_of_mmio(\"ethernet\")) == 1\n";
  const auto violations = engine.CheckDocument(policy);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].line, 4);
  EXPECT_EQ(violations[0].source_line, "  1 + + 2");
  // Column points at the stray '+' in the original line, 1-based.
  EXPECT_EQ(violations[0].column, 7);
  EXPECT_NE(violations[0].reason.find("policy error"), std::string::npos);
  // Failing-but-well-formed lines report no column.
  const auto false_line = engine.CheckDocument("1 == 2\n");
  ASSERT_EQ(false_line.size(), 1u);
  EXPECT_EQ(false_line[0].column, 0);
  EXPECT_EQ(false_line[0].source_line, "1 == 2");
}

TEST_F(AuditTest, ReportIsVersionedAndByteStable) {
  const json::Value report = ReportFor(false);
  EXPECT_EQ(report["schema_version"].AsInt(), audit::kReportSchemaVersion);
  // Two independent loads serialize identically, byte for byte.
  EXPECT_EQ(report.Dump(2), ReportFor(false).Dump(2));
  // The v2 thread entry names the exact export.
  EXPECT_EQ(report["threads"][0]["entry"].AsString(), "http_client.fetch");
}

TEST_F(AuditTest, ReportMatchesGoldenFile) {
  // Pins the v2 report schema. If this fails after an intentional schema
  // change, bump audit::kReportSchemaVersion and regenerate with
  //   UPDATE_GOLDEN=1 ./audit_test --gtest_filter='*GoldenFile*'
  const std::string text = ReportFor(false).Dump(2) + "\n";
  const std::string path =
      std::string(CHERIOT_TEST_SRCDIR) + "/golden/audit_report_v2.json";
  if (const char* update = std::getenv("UPDATE_GOLDEN");
      update != nullptr && *update != '\0') {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << path;
    out << text;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), text);
}

TEST_F(AuditTest, SealingTypeOwnershipQuery) {
  ImageBuilder b("sealing");
  b.Compartment("svc").Export("go", Nop()).OwnSealingType("svc.conn");
  b.Thread("t", 1, 512, 4, "svc.go");
  Machine machine;
  auto boot = Loader::Load(machine, b.Build());
  audit::PolicyEngine engine(audit::BuildReport(*boot));
  EXPECT_TRUE(engine.CheckExpression(
      "owners_of_sealing_type(\"svc.conn\") == exports_of(\"svc\") "
      "|| count(owners_of_sealing_type(\"svc.conn\")) == 1"));
}

TEST_F(AuditTest, TcbCompartmentsAppearInBootedSystemReport) {
  // A booted System adds the TCB service compartments; they are audited
  // like everything else.
  Machine machine;
  ImageBuilder b("tcb");
  b.Compartment("app")
      .AllocCap("q", 1024)
      .ImportCompartment("alloc.heap_allocate")
      .Export("main", Nop());
  b.Thread("t", 1, 1024, 4, "app.main");
  System sys(machine, b.Build());
  sys.Boot();
  audit::PolicyEngine engine(audit::BuildReport(sys.boot()));
  EXPECT_TRUE(engine.CheckExpression("compartment_exists(\"alloc\")"));
  EXPECT_TRUE(engine.CheckExpression("compartment_exists(\"sched\")"));
  // Only the allocator may touch the revoker device.
  EXPECT_TRUE(engine.CheckExpression(
      "count(importers_of_mmio(\"revoker\")) == 1 && "
      "contains(importers_of_mmio(\"revoker\"), \"alloc\")"));
}

// --- JSON library unit tests ---

TEST(Json, ParseBasics) {
  const auto v = json::Parse(R"({"a": [1, 2.5, "x", true, null], "b": {"c": -3}})");
  EXPECT_EQ(v["a"].size(), 5u);
  EXPECT_EQ(v["a"][0].AsInt(), 1);
  EXPECT_DOUBLE_EQ(v["a"][1].AsDouble(), 2.5);
  EXPECT_EQ(v["a"][2].AsString(), "x");
  EXPECT_TRUE(v["a"][3].AsBool());
  EXPECT_TRUE(v["a"][4].is_null());
  EXPECT_EQ(v["b"]["c"].AsInt(), -3);
  EXPECT_TRUE(v["missing"].is_null());
}

TEST(Json, EscapesRoundTrip) {
  json::Object o;
  o["k"] = "line\nbreak \"quoted\" \\slash";
  const std::string text = json::Value(std::move(o)).Dump(-1);
  const auto parsed = json::Parse(text);
  EXPECT_EQ(parsed["k"].AsString(), "line\nbreak \"quoted\" \\slash");
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW(json::Parse("{"), std::runtime_error);
  EXPECT_THROW(json::Parse("[1,]2"), std::runtime_error);
  EXPECT_THROW(json::Parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(json::Parse("{\"a\" 1}"), std::runtime_error);
}

// Bad numbers and \u escapes raise the parser's typed error with an offset,
// never std::invalid_argument or std::out_of_range from a std::sto*.
TEST(Json, MalformedNumbersAndEscapesRaiseTypedErrors) {
  for (const char* text :
       {"-", "--5", "1e999", "-1e999", "[99999999999999999999]",
        "-9223372036854775809", "\"\\uZZZZ\"", "\"\\u12\"", "1.2.3",
        "\"\\u 12x\"", "01", "1.", ".5", "1e", "1e+", "+1", "[1.e5]"}) {
    try {
      json::Parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("JSON parse error at offset ", 0),
                0u)
          << text << ": " << e.what();
    } catch (...) {
      ADD_FAILURE() << text << " raised an untyped error";
    }
  }
  // The grammar's edges still parse, to the values the old parser gave.
  const json::Value v = json::Parse(
      R"([0, -0, 9223372036854775807, -9223372036854775808, 1.5e3, 2E-2,)"
      R"( -0.25, 1e+2, "\u0041\u00e9\u20AC"])");
  EXPECT_EQ(v[0].AsInt(), 0);
  EXPECT_EQ(v[1].AsInt(), 0);
  EXPECT_EQ(v[2].AsInt(), INT64_MAX);
  EXPECT_EQ(v[3].AsInt(), INT64_MIN);
  EXPECT_EQ(v[4].type(), json::Value::Type::kDouble);
  EXPECT_DOUBLE_EQ(v[4].AsDouble(), 1500.0);
  EXPECT_DOUBLE_EQ(v[5].AsDouble(), 0.02);
  EXPECT_DOUBLE_EQ(v[6].AsDouble(), -0.25);
  EXPECT_DOUBLE_EQ(v[7].AsDouble(), 100.0);
  EXPECT_EQ(v[8].AsString(), "A\xc3\xa9\xe2\x82\xac");
}

// Nesting is bounded: 512 levels parse, one more (or a million, which used
// to overflow the host stack) raises the typed error.
TEST(Json, NestingDepthIsBounded) {
  const auto nested = [](int depth) {
    return std::string(static_cast<size_t>(depth), '[') +
           std::string(static_cast<size_t>(depth), ']');
  };
  EXPECT_EQ(json::Parse(nested(512)).Dump(-1), nested(512));
  for (int depth : {513, 1'000'000}) {
    try {
      json::Parse(nested(depth));
      ADD_FAILURE() << depth << " levels parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "JSON parse error at offset 512: nesting deeper than 512");
    }
  }
}

// The streaming writer writes Value::Dump's bytes, pretty and compact,
// including empty containers, escapes and uint64 values past INT64_MAX.
TEST(Json, WriterMatchesDump) {
  json::Object inner{{"empty_array", json::Array{}},
                     {"empty_object", json::Object{}},
                     {"nested", json::Array{1, json::Array{}, "x\ty\x01"}}};
  const json::Value doc(json::Object{
      {"a", uint64_t{0xFFFF'FFFF'FFFF'FFFFull}},
      {"b", 2.5},
      {"c", json::Array{true, false, json::Value()}},
      {"d", std::move(inner)},
      {"quote\"key", "\\"}});
  for (int indent : {-1, 0, 2, 4}) {
    std::string out;
    json::Writer w(&out, indent);
    w.BeginObject();
    w.Key("a");
    w.Uint(0xFFFF'FFFF'FFFF'FFFFull);
    w.Key("b");
    w.Double(2.5);
    w.Key("c");
    w.BeginArray();
    w.Bool(true);
    w.Bool(false);
    w.Null();
    w.EndArray();
    w.Key("d");
    w.BeginObject();
    w.Key("empty_array");
    w.BeginArray();
    w.EndArray();
    w.Key("empty_object");
    w.BeginObject();
    w.EndObject();
    w.Key("nested");
    w.Write(json::Array{1, json::Array{}, "x\ty\x01"});
    w.EndObject();
    w.Key("quote\"key");
    w.String("\\");
    w.EndObject();
    EXPECT_EQ(out, doc.Dump(indent)) << "indent " << indent;
  }
  EXPECT_EQ(doc.Dump(-1),
            R"({"a": -1,"b": 2.5,"c": [true,false,null],"d": {"empty_array": )"
            R"([],"empty_object": {},"nested": [1,[],"x\ty\u0001"]},)"
            R"("quote\"key": "\\"})");
}

TEST(Json, DeterministicKeyOrder) {
  json::Object o;
  o["zebra"] = 1;
  o["alpha"] = 2;
  const std::string text = json::Value(std::move(o)).Dump(-1);
  EXPECT_LT(text.find("alpha"), text.find("zebra"));
}

}  // namespace
}  // namespace cheriot
