#include "src/obs/observer.h"

#include <typeinfo>

#include "src/base/check.h"
#include "src/kernel/guest_thread.h"
#include "src/snap/snapshot.h"
#include "src/snap/wire.h"

namespace cheriot::obs {

namespace {

// Recorder sections in CHERSNAP order, which is also the order of the
// recorder options block.
constexpr uint32_t kRecorderSections[] = {snap::kSecTrace, snap::kSecForensics,
                                          snap::kSecCoverage};

std::string Lookup(const std::vector<std::string>& names, int id,
                   const char* fallback) {
  if (id >= 0 && static_cast<size_t>(id) < names.size()) {
    return names[static_cast<size_t>(id)];
  }
  return fallback + std::to_string(id);
}

std::string Lookup(const std::vector<std::vector<std::string>>& names,
                   int outer, int inner, const char* fallback) {
  if (outer >= 0 && static_cast<size_t>(outer) < names.size()) {
    return Lookup(names[static_cast<size_t>(outer)], inner, fallback);
  }
  return fallback + std::to_string(inner);
}

}  // namespace

std::string NameTable::Compartment(int id) const {
  switch (id) {
    case kContextIdle: return "<idle>";
    case kContextBoot: return "<boot>";
    case kContextKernel: return "<kernel>";
    default: return Lookup(compartments, id, "compartment");
  }
}

std::string NameTable::Export(int compartment, int index) const {
  return Lookup(exports, compartment, index, "export");
}

std::string NameTable::Library(int id) const {
  return Lookup(libraries, id, "library");
}

std::string NameTable::LibraryExport(int library, int index) const {
  return Lookup(library_exports, library, index, "export");
}

std::string NameTable::Thread(int id) const {
  return Lookup(threads, id, "thread");
}

void ObserverList::Add(Observer* observer) {
  for (const Observer* o : list_) {
    // Checked before the caller frees or replaces anything: a second
    // recorder of one kind would leave the first one's hooks dangling.
    CHERIOT_CHECK(typeid(*o) != typeid(*observer),
                  "an observer of this kind is already attached");
  }
  list_.push_back(observer);
}

template <typename F>
void ObserverList::ForEachRecorder(F&& f) const {
  for (uint32_t section : kRecorderSections) {
    const Observer* found = nullptr;
    for (const Observer* o : list_) {
      if (o->snapshot_section() == section) {
        found = o;
      }
    }
    f(section, found);
  }
}

uint32_t ObserverList::SnapshotFlags() const {
  uint32_t flags = 0;
  ForEachRecorder([&](uint32_t, const Observer* o) {
    if (o != nullptr) {
      flags |= o->snapshot_flag();
    }
  });
  return flags;
}

void ObserverList::SerializeOptions(snap::Writer& w) const {
  ForEachRecorder([&](uint32_t, const Observer* o) {
    w.Bool(o != nullptr);
    if (o != nullptr) {
      o->SerializeOptions(w);
    }
  });
}

void ObserverList::AppendSections(snap::Container& c) const {
  ForEachRecorder([&](uint32_t section, const Observer* o) {
    if (o != nullptr) {
      snap::Writer w;
      o->SerializeState(w);
      c.sections.push_back({section, w.Take()});
    }
  });
}

void SerializeThreadStacks(snap::Writer& w,
                           const std::vector<GuestThread>* threads,
                           size_t count) {
  w.U32(static_cast<uint32_t>(count));
  for (size_t t = 0; t < count; ++t) {
    const std::vector<int>& stack = (*threads)[t].compartment_stack;
    w.U32(static_cast<uint32_t>(stack.size()));
    for (int c : stack) {
      w.I32(c);
    }
  }
}

}  // namespace cheriot::obs
