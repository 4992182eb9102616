#include "src/analysis/lint.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/cov/report.h"

namespace cheriot::analysis {

namespace {

int SeverityRank(const std::string& s) {
  if (s == "error") return 0;
  if (s == "warning") return 1;
  return 2;
}

// Reports loaded from disk may be missing whole sections; treat them as
// empty rather than crashing the linter.
const json::Object& ObjOrEmpty(const json::Value& v) {
  static const json::Object kEmpty;
  return v.type() == json::Value::Type::kObject ? v.AsObject() : kEmpty;
}
const json::Array& ArrOrEmpty(const json::Value& v) {
  static const json::Array kEmpty;
  return v.type() == json::Value::Type::kArray ? v.AsArray() : kEmpty;
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

// --- CL001 / CL003: transitive MMIO reachability --------------------------

void MmioReachability(const AuthorityGraph& graph, const LintOptions& options,
                      std::vector<Finding>* findings) {
  for (const auto& node : graph.Nodes()) {
    if (node.rfind("mmio:", 0) != 0) {
      continue;
    }
    const std::string device = node.substr(sizeof("mmio:") - 1);
    const bool restricted = Contains(options.restricted_mmio, device);
    for (const auto& comp : graph.Nodes()) {
      if (comp.rfind("compartment:", 0) != 0) {
        continue;
      }
      bool direct = false;
      for (const auto& e : graph.EdgesFrom(comp)) {
        if (e.to == node) {
          direct = true;
        }
      }
      if (direct || !graph.Reaches(comp, node)) {
        continue;
      }
      const auto path = graph.ShortestPath(comp, node);
      Finding f;
      f.subject = AuthorityGraph::DisplayName(comp);
      f.path = path;
      if (restricted) {
        f.rule = "CL003";
        f.name = "confused-deputy-path";
        f.severity = "error";
        f.message = f.subject + " reaches restricted " + node +
                    " without importing it: " +
                    AuthorityGraph::RenderPath(path);
      } else {
        f.rule = "CL001";
        f.name = "transitive-mmio-reachability";
        f.severity = "info";
        f.message = f.subject + " reaches " + node +
                    " transitively: " + AuthorityGraph::RenderPath(path);
      }
      findings->push_back(std::move(f));
    }
  }
}

// --- CL002: sealing-key confinement ----------------------------------------

void SealingKeyConfinement(const AuthorityGraph& graph,
                           std::vector<Finding>* findings) {
  std::map<std::string, std::vector<std::string>> holders;  // type -> comps
  for (const auto& node : graph.Nodes()) {
    for (const auto& e : graph.EdgesFrom(node)) {
      if (e.kind == "sealing_key") {
        holders[e.to].push_back(AuthorityGraph::DisplayName(e.from));
      }
    }
  }
  for (const auto& [key, comps] : holders) {
    if (comps.size() <= 1) {
      continue;
    }
    Finding f;
    f.rule = "CL002";
    f.name = "sealing-key-confinement";
    f.severity = "error";
    f.subject = key;
    f.message = key + " is held by " + std::to_string(comps.size()) +
                " compartments:";
    for (const auto& c : comps) {
      f.message += " " + c;
    }
    findings->push_back(std::move(f));
  }
}

// --- CL004: quota feasibility -----------------------------------------------

void QuotaFeasibility(const json::Value& report,
                      std::vector<Finding>* findings) {
  const int64_t heap = report["heap"]["size"].AsInt();
  int64_t sum = 0;
  for (const auto& [name, comp] : ObjOrEmpty(report["compartments"])) {
    for (const auto& imp : ArrOrEmpty(comp["imports"])) {
      if (imp["kind"].AsString() != "allocation_capability") {
        continue;
      }
      const int64_t quota = imp["quota"].AsInt();
      sum += quota;
      if (quota > heap) {
        Finding f;
        f.rule = "CL004";
        f.name = "quota-feasibility";
        f.severity = "error";
        f.subject = name + "." + imp["name"].AsString();
        f.message = "allocation capability " + imp["name"].AsString() +
                    " of " + name + " has quota " + std::to_string(quota) +
                    " B, larger than the whole heap (" + std::to_string(heap) +
                    " B): it can never be satisfied";
        findings->push_back(std::move(f));
      }
    }
  }
  if (sum > heap) {
    Finding f;
    f.rule = "CL004";
    f.name = "quota-feasibility";
    f.severity = "warning";
    f.subject = "heap";
    f.message = "allocation quotas sum to " + std::to_string(sum) +
                " B against a " + std::to_string(heap) +
                " B heap: quotas are overcommitted, so the no-DoS guarantee "
                "(§3.2.2) does not hold for every compartment simultaneously";
    findings->push_back(std::move(f));
  }
}

// --- CL005: dead exports -----------------------------------------------------

void DeadExports(const json::Value& report, const LintOptions& options,
                 std::vector<Finding>* findings) {
  std::set<std::string> used;  // "owner.function", owners of both kinds
  for (const auto& [name, comp] : ObjOrEmpty(report["compartments"])) {
    for (const auto& imp : ArrOrEmpty(comp["imports"])) {
      const std::string& kind = imp["kind"].AsString();
      if (kind == "call") {
        used.insert(imp["compartment_name"].AsString() + "." +
                    imp["function"].AsString());
      } else if (kind == "library") {
        used.insert(imp["library"].AsString() + "." +
                    imp["function"].AsString());
      }
    }
  }
  for (const auto& t : ArrOrEmpty(report["threads"])) {
    if (t.Has("entry")) {
      used.insert(t["entry"].AsString());
    } else {
      // Pre-v2 reports name only the entry compartment; treat every export
      // of it as potentially entered.
      const json::Value& exports =
          report["compartments"][t["entry_compartment"].AsString()]["exports"];
      if (exports.is_null()) {
        continue;
      }
      for (const auto& e : exports.AsArray()) {
        used.insert(t["entry_compartment"].AsString() + "." +
                    e["function"].AsString());
      }
    }
  }

  auto scan = [&](const std::string& owner, const json::Value& def,
                  bool is_library) {
    if (Contains(options.dead_export_exempt, owner)) {
      return;
    }
    for (const auto& e : ArrOrEmpty(def["exports"])) {
      const std::string fn = e["function"].AsString();
      if (used.count(owner + "." + fn)) {
        continue;
      }
      Finding f;
      f.rule = "CL005";
      f.name = "dead-export";
      f.severity = "warning";
      f.subject = (is_library ? "library:" : "") + owner + "." + fn;
      f.message = std::string(is_library ? "library " : "compartment ") +
                  owner + " exports " + fn +
                  " but no compartment imports it and no thread enters it";
      f.fix = std::string("remove dead export: ImageBuilder.") +
              (is_library ? "Library" : "Compartment") + "(\"" + owner +
              "\").Export(\"" + fn + "\", ...)";
      findings->push_back(std::move(f));
    }
  };
  for (const auto& [name, comp] : ObjOrEmpty(report["compartments"])) {
    scan(name, comp, false);
  }
  for (const auto& [name, lib] : ObjOrEmpty(report["libraries"])) {
    scan(name, lib, true);
  }
}

// --- CL006: redundant imports ------------------------------------------------

void RedundantImports(const json::Value& report,
                      std::vector<Finding>* findings) {
  for (const auto& [name, comp] : ObjOrEmpty(report["compartments"])) {
    // identity -> (count, builder call)
    std::map<std::string, std::pair<int, std::string>> seen;
    for (const auto& imp : ArrOrEmpty(comp["imports"])) {
      const std::string& kind = imp["kind"].AsString();
      std::string identity, call;
      if (kind == "call") {
        identity = "call " + imp["compartment_name"].AsString() + "." +
                   imp["function"].AsString();
        call = "ImportCompartment(\"" + imp["compartment_name"].AsString() +
               "." + imp["function"].AsString() + "\")";
      } else if (kind == "library") {
        identity = "library " + imp["library"].AsString() + "." +
                   imp["function"].AsString();
        call = "ImportLibrary(\"" + imp["library"].AsString() + "." +
               imp["function"].AsString() + "\")";
      } else if (kind == "mmio") {
        identity = "mmio " + imp["device"].AsString();
        call = "ImportMmio(\"" + imp["device"].AsString() + "\", ...)";
      } else if (kind == "allocation_capability") {
        identity = "alloc_cap " + imp["name"].AsString();
        call = "AllocCap(\"" + imp["name"].AsString() + "\", ...)";
      } else if (kind == "sealed_object") {
        identity = "sealed_object " + imp["name"].AsString();
        call = "SealedObject(\"" + imp["name"].AsString() + "\", ...)";
      } else if (kind == "sealing_key") {
        identity = "sealing_key " + imp["sealing_type"].AsString();
        call = "OwnSealingType(\"" + imp["sealing_type"].AsString() + "\")";
      } else {
        continue;
      }
      auto& entry = seen[identity];
      ++entry.first;
      entry.second = call;
    }
    for (const auto& [identity, entry] : seen) {
      if (entry.first <= 1) {
        continue;
      }
      Finding f;
      f.rule = "CL006";
      f.name = "redundant-import";
      f.severity = "warning";
      f.subject = name;
      f.message = name + " declares the same import " +
                  std::to_string(entry.first) + " times: " + identity;
      f.fix = "remove duplicate: ImageBuilder.Compartment(\"" + name +
              "\")." + entry.second;
      findings->push_back(std::move(f));
    }
  }
}

// --- CL007: stack depth vs the static call graph ----------------------------

struct DepthInfo {
  int frames = 0;       // compartments on the deepest chain, inclusive
  int64_t bytes = 0;    // worst-case sum of per-compartment stack demand
  bool cycle = false;   // a call cycle is reachable (depth unbounded)
};

// Worst-case stack demand of entering a compartment: the largest
// minimum_stack over its exports (the linter cannot know which export a
// caller uses, so it over-approximates).
int64_t CompartmentStackDemand(const json::Value& report,
                               const std::string& name) {
  int64_t demand = 0;
  const json::Value& exports = report["compartments"][name]["exports"];
  if (exports.is_null()) {
    return 0;  // dangling call edge in a hand-crafted report
  }
  for (const auto& e : exports.AsArray()) {
    demand = std::max(demand, e["minimum_stack"].AsInt());
  }
  return demand;
}

DepthInfo WalkDepth(const json::Value& report, const AuthorityGraph& graph,
                    const std::string& node, std::set<std::string>* on_stack,
                    std::map<std::string, DepthInfo>* memo) {
  if (const auto it = memo->find(node); it != memo->end()) {
    return it->second;
  }
  if (on_stack->count(node)) {
    DepthInfo cyc;
    cyc.cycle = true;
    return cyc;  // do not memoize: the node's true depth is not known yet
  }
  on_stack->insert(node);
  DepthInfo best;
  for (const auto& e : graph.EdgesFrom(node)) {
    if (e.kind != "call") {
      continue;
    }
    const DepthInfo sub = WalkDepth(report, graph, e.to, on_stack, memo);
    best.frames = std::max(best.frames, sub.frames);
    best.bytes = std::max(best.bytes, sub.bytes);
    best.cycle = best.cycle || sub.cycle;
  }
  on_stack->erase(node);
  best.frames += 1;
  best.bytes +=
      CompartmentStackDemand(report, AuthorityGraph::DisplayName(node));
  (*memo)[node] = best;
  return best;
}

void StackDepth(const json::Value& report, const AuthorityGraph& graph,
                std::vector<Finding>* findings) {
  std::map<std::string, DepthInfo> memo;
  for (const auto& t : ArrOrEmpty(report["threads"])) {
    const std::string entry = t["entry_compartment"].AsString();
    std::set<std::string> on_stack;
    const DepthInfo d =
        WalkDepth(report, graph, "compartment:" + entry, &on_stack, &memo);
    const std::string thread = t["name"].AsString();
    if (d.cycle) {
      Finding f;
      f.rule = "CL007";
      f.name = "stack-depth";
      f.severity = "warning";
      f.subject = thread;
      f.message = "thread " + thread + " enters " + entry +
                  ", whose static call graph contains a cycle: trusted-stack "
                  "depth cannot be bounded statically";
      findings->push_back(std::move(f));
      continue;  // depth numbers are meaningless under a cycle
    }
    const int64_t frames = t["trusted_stack_frames"].AsInt();
    if (d.frames > frames) {
      Finding f;
      f.rule = "CL007";
      f.name = "stack-depth";
      f.severity = "warning";
      f.subject = thread;
      f.message = "thread " + thread + " has " + std::to_string(frames) +
                  " trusted-stack frames but the static call graph from " +
                  entry + " can be " + std::to_string(d.frames) +
                  " compartments deep: deep call chains will fault";
      findings->push_back(std::move(f));
    }
    const int64_t stack = t["stack_size"].AsInt();
    if (d.bytes > stack) {
      Finding f;
      f.rule = "CL007";
      f.name = "stack-depth";
      f.severity = "warning";
      f.subject = thread;
      f.message = "thread " + thread + " has a " + std::to_string(stack) +
                  " B stack but the worst static call chain from " + entry +
                  " demands " + std::to_string(d.bytes) +
                  " B of minimum stack";
      findings->push_back(std::move(f));
    }
  }
}

// --- CL008: duplicate exports ------------------------------------------------

void DuplicateExports(const json::Value& report,
                      std::vector<Finding>* findings) {
  auto scan = [&](const std::string& owner, const json::Value& def,
                  bool is_library) {
    std::map<std::string, int> counts;
    for (const auto& e : ArrOrEmpty(def["exports"])) {
      ++counts[e["function"].AsString()];
    }
    for (const auto& [fn, n] : counts) {
      if (n <= 1) {
        continue;
      }
      Finding f;
      f.rule = "CL008";
      f.name = "duplicate-export";
      f.severity = "error";
      f.subject = (is_library ? "library:" : "") + owner + "." + fn;
      f.message = std::string(is_library ? "library " : "compartment ") +
                  owner + " exports " + fn + " " + std::to_string(n) +
                  " times: import resolution is ambiguous";
      findings->push_back(std::move(f));
    }
  };
  for (const auto& [name, comp] : ObjOrEmpty(report["compartments"])) {
    scan(name, comp, false);
  }
  for (const auto& [name, lib] : ObjOrEmpty(report["libraries"])) {
    scan(name, lib, true);
  }
}

// --- CL009: interrupt-posture audit ----------------------------------------

void InterruptPostureAudit(const json::Value& report,
                           const AuthorityGraph& graph,
                           const LintOptions& options,
                           std::vector<Finding>* findings) {
  // Every interrupts-disabled export of a non-exempt owner, with its graph
  // node id ("compartment:x" / "library:x").
  struct DisabledExport {
    std::string owner;
    std::string node;
    std::string fn;
    bool is_library;
  };
  std::vector<DisabledExport> disabled;
  auto scan = [&](const std::string& owner, const json::Value& def,
                  bool is_library) {
    if (Contains(options.posture_exempt_owners, owner)) {
      return;
    }
    for (const auto& e : ArrOrEmpty(def["exports"])) {
      if (e["interrupt_posture"].AsString() != "disabled") {
        continue;
      }
      disabled.push_back({owner,
                          (is_library ? "library:" : "compartment:") + owner,
                          e["function"].AsString(), is_library});
    }
  };
  for (const auto& [name, comp] : ObjOrEmpty(report["compartments"])) {
    scan(name, comp, false);
  }
  for (const auto& [name, lib] : ObjOrEmpty(report["libraries"])) {
    scan(name, lib, true);
  }

  // Direct importers get one warning per export; transitive-only reachers
  // get one info finding per (caller, owner) — every disabled export of the
  // owner sits behind the same path, so per-export findings are pure noise.
  std::set<std::pair<std::string, std::string>> transitive_seen;
  for (const auto& d : disabled) {
    for (const auto& comp : graph.Nodes()) {
      if (comp.rfind("compartment:", 0) != 0) {
        continue;
      }
      const std::string caller = AuthorityGraph::DisplayName(comp);
      if (caller == d.owner || Contains(options.interrupt_posture_allowlist,
                                        caller)) {
        continue;
      }
      bool direct = false;
      for (const auto& e : graph.EdgesFrom(comp)) {
        if (e.to == d.node && e.detail == d.fn &&
            (e.kind == "call" || e.kind == "library")) {
          direct = true;
        }
      }
      if (!direct && !graph.Reaches(comp, d.node)) {
        continue;
      }
      if (!direct && !transitive_seen.emplace(caller, d.node).second) {
        continue;
      }
      Finding f;
      f.rule = "CL009";
      f.name = "interrupt-posture";
      f.subject = caller;
      if (direct) {
        f.severity = "warning";
        f.message = caller + " can invoke " + d.owner + "." + d.fn +
                    ", which runs with interrupts disabled; allowlist " +
                    caller + " if this availability authority is intended";
      } else {
        // Reaches the owner only through other compartments: a confused
        // deputy could still drive it into its interrupts-disabled region.
        f.severity = "info";
        f.path = graph.ShortestPath(comp, d.node);
        f.message = caller + " reaches interrupts-disabled " + d.owner +
                    " transitively: " + AuthorityGraph::RenderPath(f.path);
      }
      findings->push_back(std::move(f));
    }
  }
}

// --- CL010: unused-authority (dynamic coverage evidence) --------------------

void UnusedAuthority(const json::Value& report, const LintOptions& options,
                     std::vector<Finding>* findings) {
  if (options.coverage == nullptr) {
    return;
  }
  const cov::ExerciseIndex idx = cov::BuildExerciseIndex(*options.coverage);
  if (!idx.valid) {
    return;
  }
  const std::string image = report["firmware"].AsString();
  auto push = [findings](const std::string& severity,
                         const std::string& subject, std::string message,
                         std::string fix) {
    Finding f;
    f.rule = "CL010";
    f.name = "unused-authority";
    f.severity = severity;
    f.subject = subject;
    f.message = std::move(message);
    f.fix = std::move(fix);
    findings->push_back(std::move(f));
  };
  if (idx.image != image) {
    push("info", image,
         "coverage evidence is for image \"" + idx.image + "\", not \"" +
             image + "\"; unused-authority not evaluated",
         "re-run cheriot cov on this image");
    return;
  }
  const std::set<std::string>& service = cov::ServiceOwners();
  for (const auto& [comp, c] : ObjOrEmpty(report["compartments"])) {
    // Mirrors the least-privilege report (src/cov/report.cc): an
    // unexercised grant is only *suspicious* when its holder demonstrably
    // ran and used other authority of its own; being called doesn't count.
    // Imports targeting a service owner — and service owners' own device
    // windows — are wholesale linkage (sync::Use*, net::UseNetwork), so
    // they stay info regardless.
    const bool active = idx.active.count(comp) > 0;
    const std::string unused_sev = active ? "warning" : "info";
    const std::string holder_sev = service.count(comp) ? "info" : unused_sev;
    for (const auto& imp : ArrOrEmpty(c["imports"])) {
      const std::string& kind = imp["kind"].AsString();
      if (kind == "call") {
        const std::string& callee = imp["compartment_name"].AsString();
        const std::string target = callee + "." + imp["function"].AsString();
        if (!idx.calls.count({comp, target})) {
          push(service.count(callee) ? "info" : unused_sev,
               comp + " -> " + target,
               comp + " imports " + target + " but never called it",
               "remove unused import: ImageBuilder.Compartment(\"" + comp +
                   "\").ImportCompartment(\"" + target + "\")");
        }
      } else if (kind == "library") {
        const std::string& library = imp["library"].AsString();
        const std::string target = library + "." + imp["function"].AsString();
        if (!idx.libcalls.count({comp, target})) {
          push(service.count(library) ? "info" : unused_sev,
               comp + " -> " + target,
               comp + " imports library " + target + " but never called it",
               "remove unused import: ImageBuilder.Compartment(\"" + comp +
                   "\").ImportLibrary(\"" + target + "\")");
        }
      } else if (kind == "mmio") {
        const std::string& device = imp["device"].AsString();
        const auto key = std::make_tuple(
            comp, device, static_cast<uint64_t>(imp["start"].AsInt()),
            static_cast<uint64_t>(imp["length"].AsInt()));
        auto it = idx.mmio.find(key);
        if (it == idx.mmio.end() ||
            it->second.reads + it->second.writes == 0) {
          push(holder_sev, comp + " -> " + device,
               comp + " holds mmio grant \"" + device + "\" (" +
                   std::to_string(imp["length"].AsInt()) +
                   " bytes) but never touched it",
               "remove unused grant: ImageBuilder.Compartment(\"" + comp +
                   "\").ImportMmio(\"" + device + "\", ...)");
        }
      } else if (kind == "allocation_capability") {
        const std::string& name = imp["name"].AsString();
        auto it = idx.quotas.find({comp, name});
        if (it == idx.quotas.end() ||
            it->second.allocations + it->second.denials == 0) {
          // Quotas and sealing keys are standing headroom, not a reachable
          // attack surface the way a dead call or device window is: info.
          push("info", comp + " -> " + name,
               comp + " holds allocation capability \"" + name +
                   "\" but never allocated from it",
               "remove unused quota: ImageBuilder.Compartment(\"" + comp +
                   "\").AllocCap(\"" + name + "\", ...)");
        }
      } else if (kind == "sealing_key") {
        const std::string& type = imp["sealing_type"].AsString();
        if (!idx.sealing.count({comp, type})) {
          push("info", comp + " -> " + type,
               comp + " holds a sealing key for \"" + type +
                   "\" but never sealed or unsealed with it",
               "remove unused key: ImageBuilder.Compartment(\"" + comp +
                   "\").SealingKey(\"" + type + "\")");
        }
      }
    }
  }
}

}  // namespace

std::vector<Finding> RunLints(const json::Value& report,
                              const LintOptions& options) {
  const AuthorityGraph graph = AuthorityGraph::FromReport(report);
  std::vector<Finding> findings;
  MmioReachability(graph, options, &findings);
  SealingKeyConfinement(graph, &findings);
  QuotaFeasibility(report, &findings);
  DeadExports(report, options, &findings);
  RedundantImports(report, &findings);
  StackDepth(report, graph, &findings);
  DuplicateExports(report, &findings);
  InterruptPostureAudit(report, graph, options, &findings);
  UnusedAuthority(report, options, &findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              const int ra = SeverityRank(a.severity);
              const int rb = SeverityRank(b.severity);
              return std::tie(ra, a.rule, a.subject, a.message) <
                     std::tie(rb, b.rule, b.subject, b.message);
            });
  return findings;
}

bool HasErrors(const std::vector<Finding>& findings) {
  for (const auto& f : findings) {
    if (f.severity == "error") {
      return true;
    }
  }
  return false;
}

json::Value FindingsToJson(const json::Value& report,
                           const std::vector<Finding>& findings) {
  json::Object root;
  root["schema_version"] = 1;
  root["image"] = report["firmware"].AsString();
  json::Object counts;
  int64_t errors = 0, warnings = 0, infos = 0;
  for (const auto& f : findings) {
    if (f.severity == "error") ++errors;
    else if (f.severity == "warning") ++warnings;
    else ++infos;
  }
  counts["error"] = errors;
  counts["warning"] = warnings;
  counts["info"] = infos;
  root["counts"] = json::Value(std::move(counts));
  json::Array arr;
  for (const auto& f : findings) {
    json::Object o;
    o["rule"] = f.rule;
    o["name"] = f.name;
    o["severity"] = f.severity;
    o["subject"] = f.subject;
    o["message"] = f.message;
    if (!f.path.empty()) {
      json::Array p;
      for (const auto& n : f.path) {
        p.push_back(n);
      }
      o["path"] = json::Value(std::move(p));
    }
    if (!f.fix.empty()) {
      o["fix"] = f.fix;
    }
    arr.push_back(json::Value(std::move(o)));
  }
  root["findings"] = json::Value(std::move(arr));
  return json::Value(std::move(root));
}

std::string FindingsToText(const json::Value& report,
                           const std::vector<Finding>& findings) {
  std::string out = "image " + report["firmware"].AsString() + ": " +
                    std::to_string(findings.size()) + " finding(s)\n";
  for (const auto& f : findings) {
    out += "[" + f.severity + "] " + f.rule + " " + f.name + ": " + f.message +
           "\n";
    if (!f.path.empty()) {
      out += "        path: " + AuthorityGraph::RenderPath(f.path) + "\n";
    }
  }
  return out;
}

std::string FixSuggestion(const Finding& finding) { return finding.fix; }

}  // namespace cheriot::analysis
