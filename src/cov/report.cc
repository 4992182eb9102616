#include "src/cov/report.h"

#include <algorithm>

#include "src/cov/coverage.h"

namespace cheriot::cov {

namespace {

bool IsPseudoCompartment(const std::string& name) {
  return !name.empty() && name.front() == '<';
}

// Parses a BitmapHex string (16 hex chars per 64-granule word) and ORs it
// into `out`, growing as needed.
void OrBitmapHex(const std::string& hex, std::vector<uint64_t>* out) {
  const size_t words = hex.size() / 16;
  if (out->size() < words) {
    out->resize(words, 0);
  }
  for (size_t w = 0; w < words; ++w) {
    uint64_t v = 0;
    for (size_t i = 0; i < 16; ++i) {
      const char c = hex[w * 16 + i];
      v = (v << 4) | static_cast<uint64_t>(
                         c >= 'a' ? c - 'a' + 10
                                  : c >= 'A' ? c - 'A' + 10 : c - '0');
    }
    (*out)[w] |= v;
  }
}

uint64_t Popcount(const std::vector<uint64_t>& words) {
  uint64_t n = 0;
  for (uint64_t w : words) {
    n += static_cast<uint64_t>(__builtin_popcountll(w));
  }
  return n;
}

json::Value Finding(const char* severity, const char* kind,
                    const std::string& compartment, const std::string& subject,
                    std::string message, std::string suggestion) {
  json::Object o;
  o["severity"] = severity;
  o["kind"] = kind;
  o["compartment"] = compartment;
  o["subject"] = subject;
  o["message"] = std::move(message);
  o["suggestion"] = std::move(suggestion);
  return json::Value(std::move(o));
}

int SeverityRank(const std::string& s) { return s == "warning" ? 0 : 1; }

}  // namespace

json::Value CoverageJson(const std::string& image,
                         const std::vector<const CovRecorder*>& boards) {
  json::Object doc;
  doc["schema_version"] = kCoverageSchemaVersion;
  doc["image"] = image;
  json::Array arr;
  for (const CovRecorder* r : boards) {
    arr.push_back(r->Json());
  }
  doc["boards"] = std::move(arr);
  return json::Value(std::move(doc));
}

const std::set<std::string>& ServiceOwners() {
  static const std::set<std::string> kOwners = {
      "alloc",  "sched",         "token",  "queue", "message_queue",
      "locks",  "semaphore",     "events", "tcpip", "tls",
      "dns",    "sntp",          "mqtt",   "minivm"};
  return kOwners;
}

ExerciseIndex BuildExerciseIndex(const json::Value& coverage) {
  ExerciseIndex idx;
  if (coverage.type() != json::Value::Type::kObject ||
      !coverage.Has("image") || !coverage.Has("boards")) {
    return idx;
  }
  idx.valid = true;
  idx.image = coverage["image"].AsString();
  std::map<std::tuple<std::string, std::string, uint64_t, uint64_t>,
           std::vector<uint64_t>>
      touched_union;
  for (const json::Value& board : coverage["boards"].AsArray()) {
    ++idx.boards;
    for (const json::Value& e : board["calls"].AsArray()) {
      const std::string& caller = e["caller"].AsString();
      const std::string target =
          e["callee"].AsString() + "." + e["export"].AsString();
      idx.called_exports.insert(target);
      if (!IsPseudoCompartment(caller)) {
        idx.calls.insert({caller, target});
        idx.active.insert(caller);
      }
    }
    for (const json::Value& e : board["library_calls"].AsArray()) {
      const std::string& caller = e["caller"].AsString();
      if (!IsPseudoCompartment(caller)) {
        idx.libcalls.insert(
            {caller, e["library"].AsString() + "." + e["export"].AsString()});
        idx.active.insert(caller);
      }
    }
    for (const json::Value& e : board["mmio"].AsArray()) {
      const auto key = std::make_tuple(
          e["compartment"].AsString(), e["device"].AsString(),
          static_cast<uint64_t>(e["base"].AsInt()),
          static_cast<uint64_t>(e["size"].AsInt()));
      MmioUse& use = idx.mmio[key];
      use.reads += static_cast<uint64_t>(e["reads"].AsInt());
      use.writes += static_cast<uint64_t>(e["writes"].AsInt());
      use.granules_total = static_cast<uint64_t>(e["granules_total"].AsInt());
      if (e.Has("touched")) {
        OrBitmapHex(e["touched"].AsString(), &touched_union[key]);
      } else {
        // Granule tracking off: any access marks the grant fully exercised
        // for diff purposes.
        use.granules_touched =
            use.reads + use.writes > 0 ? use.granules_total : 0;
      }
      if (use.reads + use.writes > 0) {
        idx.active.insert(std::get<0>(key));
      }
    }
    for (const json::Value& e : board["quotas"].AsArray()) {
      QuotaUse& use = idx.quotas[{e["compartment"].AsString(),
                                  e["name"].AsString()}];
      use.allocations += static_cast<uint64_t>(e["allocations"].AsInt());
      use.denials += static_cast<uint64_t>(e["denials"].AsInt());
      use.limit = static_cast<uint64_t>(e["limit"].AsInt());
      use.peak_live =
          std::max(use.peak_live,
                   static_cast<uint64_t>(e["peak_live_bytes"].AsInt()));
      if (use.allocations > 0) {
        idx.active.insert(e["compartment"].AsString());
      }
    }
    for (const json::Value& e : board["sealing"].AsArray()) {
      if (e["seals"].AsInt() + e["unseals"].AsInt() > 0) {
        idx.sealing.insert(
            {e["compartment"].AsString(), e["type"].AsString()});
        idx.active.insert(e["compartment"].AsString());
      }
    }
  }
  for (auto& [key, bits] : touched_union) {
    idx.mmio[key].granules_touched = Popcount(bits);
  }
  return idx;
}

json::Value LeastPrivilegeJson(const json::Value& audit_report,
                               const json::Value& coverage) {
  const std::string image = audit_report["firmware"].AsString();
  const ExerciseIndex idx = BuildExerciseIndex(coverage);

  json::Object doc;
  doc["schema_version"] = kLeastPrivilegeSchemaVersion;
  doc["image"] = image;
  json::Object evidence;
  evidence["image"] = idx.image;
  evidence["boards"] = idx.boards;
  const bool matches = idx.valid && idx.image == image;
  evidence["matches"] = matches;
  doc["evidence"] = json::Value(std::move(evidence));

  json::Array findings;
  uint64_t imports_total = 0, imports_exercised = 0;
  uint64_t exports_total = 0, exports_called = 0;
  uint64_t granules_granted = 0, granules_touched = 0;

  if (!matches) {
    findings.push_back(Finding(
        "info", "stale_evidence", "", idx.image,
        "coverage evidence is for image \"" + idx.image +
            "\", not \"" + image + "\"; no diff performed",
        "re-run cheriot cov on this image"));
  } else {
    // The dead-export exemption matches the CL00x linter: RTOS service
    // compartments export their API into every image by construction.
    const std::set<std::string> exempt = {"alloc", "sched", "token"};
    const std::set<std::string>& service = ServiceOwners();
    for (const auto& [comp, c] : audit_report["compartments"].AsObject()) {
      const bool active = idx.active.count(comp) > 0;
      // An unexercised grant is a *warning* only under differential
      // evidence: the holder ran and used other authority, yet never this
      // grant. Inactive holders (no-op fixtures, cold paths) stay info, as
      // do service-owner holders (their device windows are stack linkage,
      // not authored grants) and imports *targeting* a service owner (the
      // Use* helpers import the whole API wholesale by design).
      const char* unused_sev = active ? "warning" : "info";
      const char* holder_sev = service.count(comp) ? "info" : unused_sev;
      for (const json::Value& imp : c["imports"].AsArray()) {
        const std::string& kind = imp["kind"].AsString();
        if (kind == "call") {
          ++imports_total;
          const std::string& callee = imp["compartment_name"].AsString();
          const std::string subject =
              callee + "." + imp["function"].AsString();
          if (idx.calls.count({comp, subject})) {
            ++imports_exercised;
          } else {
            findings.push_back(Finding(
                service.count(callee) ? "info" : unused_sev,
                "unused_call_import", comp, subject,
                "import of " + subject + " was never called",
                "drop ImportCompartment(\"" + subject + "\")"));
          }
        } else if (kind == "library") {
          ++imports_total;
          const std::string& library = imp["library"].AsString();
          const std::string subject =
              library + "." + imp["function"].AsString();
          if (idx.libcalls.count({comp, subject})) {
            ++imports_exercised;
          } else {
            findings.push_back(Finding(
                service.count(library) ? "info" : unused_sev,
                "unused_library_import", comp, subject,
                "import of library " + subject + " was never called",
                "drop ImportLibrary(\"" + subject + "\")"));
          }
        } else if (kind == "mmio") {
          ++imports_total;
          const std::string& device = imp["device"].AsString();
          const auto key = std::make_tuple(
              comp, device, static_cast<uint64_t>(imp["start"].AsInt()),
              static_cast<uint64_t>(imp["length"].AsInt()));
          auto it = idx.mmio.find(key);
          const MmioUse use = it != idx.mmio.end() ? it->second : MmioUse{};
          const uint64_t total =
              use.granules_total != 0
                  ? use.granules_total
                  : (static_cast<uint64_t>(imp["length"].AsInt()) + 7) / 8;
          granules_granted += total;
          granules_touched += use.granules_touched;
          if (use.reads + use.writes == 0) {
            findings.push_back(Finding(
                holder_sev, "unused_mmio", comp, device,
                "mmio grant \"" + device + "\" (" +
                    std::to_string(imp["length"].AsInt()) +
                    " bytes) was never touched",
                "drop ImportMmio(\"" + device + "\", ...)"));
          } else {
            ++imports_exercised;
            if (use.granules_touched < total) {
              findings.push_back(Finding(
                  "info", "mmio_partial", comp, device,
                  "mmio grant \"" + device + "\" touched " +
                      std::to_string(use.granules_touched) + " of " +
                      std::to_string(total) + " granules",
                  "narrow the window to the registers actually used"));
            }
          }
        } else if (kind == "allocation_capability") {
          ++imports_total;
          const std::string& name = imp["name"].AsString();
          auto it = idx.quotas.find({comp, name});
          const QuotaUse use =
              it != idx.quotas.end() ? it->second : QuotaUse{};
          if (use.allocations + use.denials == 0) {
            // Alloc-capability and sealing-key findings never warn: a quota
            // is standing headroom, not a reachable attack surface the way a
            // dead call or device window is.
            findings.push_back(Finding(
                "info", "unused_alloc_cap", comp, name,
                "allocation capability \"" + name + "\" was never used",
                "drop AllocCap(\"" + name + "\")"));
          } else {
            ++imports_exercised;
            if (use.peak_live * 2 <= use.limit && use.denials == 0) {
              findings.push_back(Finding(
                  "info", "quota_headroom", comp, name,
                  "quota \"" + name + "\": peak live " +
                      std::to_string(use.peak_live) + " of " +
                      std::to_string(use.limit) + " bytes granted",
                  "reduce the quota toward the observed peak"));
            }
          }
        } else if (kind == "sealing_key") {
          ++imports_total;
          const std::string& type = imp["sealing_type"].AsString();
          if (idx.sealing.count({comp, type})) {
            ++imports_exercised;
          } else {
            findings.push_back(Finding(
                "info", "unused_sealing_key", comp, type,
                "sealing key for type \"" + type + "\" was never exercised",
                "drop SealingKey(\"" + type + "\")"));
          }
        }
        // "sealed_object": static data, nothing dynamic to diff.
      }
      for (const json::Value& exp : c["exports"].AsArray()) {
        ++exports_total;
        const std::string subject = comp + "." + exp["function"].AsString();
        if (idx.called_exports.count(subject)) {
          ++exports_called;
        } else if (!exempt.count(comp)) {
          findings.push_back(Finding(
              "info", "never_called_export", comp, subject,
              "export " + subject + " was never invoked",
              "drop the export or its callers' imports"));
        }
      }
    }
    // Authority exercised outside the static grant table (delegated
    // capabilities): surfaced so a reviewer sees third-party flows.
    for (const json::Value& board : coverage["boards"].AsArray()) {
      for (const json::Value& e : board["unattributed_mmio"].AsArray()) {
        const std::string& comp = e["compartment"].AsString();
        if (IsPseudoCompartment(comp)) {
          continue;
        }
        findings.push_back(Finding(
            "info", "unattributed_mmio", comp,
            std::to_string(e["granule"].AsInt()),
            "compartment touched mmio granule " +
                std::to_string(e["granule"].AsInt()) +
                " outside its own grants (delegated capability)",
            "audit the delegation path"));
      }
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const json::Value& a, const json::Value& b) {
              const auto ka = std::make_tuple(
                  SeverityRank(a["severity"].AsString()),
                  a["compartment"].AsString(), a["kind"].AsString(),
                  a["subject"].AsString());
              const auto kb = std::make_tuple(
                  SeverityRank(b["severity"].AsString()),
                  b["compartment"].AsString(), b["kind"].AsString(),
                  b["subject"].AsString());
              return ka < kb;
            });
  // Cross-board duplicates (same finding from every board's unattributed
  // list) collapse after the sort.
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const json::Value& a, const json::Value& b) {
                               return a.Dump(-1) == b.Dump(-1);
                             }),
                 findings.end());

  uint64_t warnings = 0, infos = 0;
  for (const json::Value& f : findings) {
    (f["severity"].AsString() == "warning" ? warnings : infos) += 1;
  }
  json::Object summary;
  summary["imports_total"] = imports_total;
  summary["imports_exercised"] = imports_exercised;
  summary["exports_total"] = exports_total;
  summary["exports_called"] = exports_called;
  summary["mmio_granules_granted"] = granules_granted;
  summary["mmio_granules_touched"] = granules_touched;
  summary["warnings"] = warnings;
  summary["infos"] = infos;
  doc["summary"] = json::Value(std::move(summary));
  doc["findings"] = std::move(findings);
  return json::Value(std::move(doc));
}

std::string LeastPrivilegeText(const json::Value& report) {
  std::string out;
  out += "least-privilege report for " + report["image"].AsString();
  const json::Value& ev = report["evidence"];
  out += " (evidence: " + std::to_string(ev["boards"].AsInt()) + " board" +
         (ev["boards"].AsInt() == 1 ? "" : "s") +
         (ev["matches"].AsBool() ? "" : ", STALE") + ")\n";
  const json::Value& s = report["summary"];
  out += "  imports exercised: " +
         std::to_string(s["imports_exercised"].AsInt()) + "/" +
         std::to_string(s["imports_total"].AsInt()) +
         " · exports called: " + std::to_string(s["exports_called"].AsInt()) +
         "/" + std::to_string(s["exports_total"].AsInt()) +
         " · mmio granules touched: " +
         std::to_string(s["mmio_granules_touched"].AsInt()) + "/" +
         std::to_string(s["mmio_granules_granted"].AsInt()) + "\n";
  for (const json::Value& f : report["findings"].AsArray()) {
    out += "  [" + f["severity"].AsString() + "] ";
    if (!f["compartment"].AsString().empty()) {
      out += f["compartment"].AsString() + ": ";
    }
    out += f["message"].AsString();
    out += " — " + f["suggestion"].AsString() + "\n";
  }
  out += "  " + std::to_string(s["warnings"].AsInt()) + " warning(s), " +
         std::to_string(s["infos"].AsInt()) + " info finding(s)\n";
  return out;
}

}  // namespace cheriot::cov
