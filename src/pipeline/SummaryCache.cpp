//===- pipeline/SummaryCache.cpp - On-disk summary cache ------------------===//

#include "pipeline/SummaryCache.h"

#include "support/Diagnostics.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

using namespace slo;

SummaryCache::SummaryCache(std::string CacheDir) : Dir(std::move(CacheDir)) {}

std::string SummaryCache::pathFor(const std::string &ModuleName) const {
  // Module names are user-controlled; keep only filename-safe bytes.
  std::string Safe;
  for (char C : ModuleName) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_' || C == '-' || C == '.';
    Safe += Ok ? C : '_';
  }
  if (Safe.empty())
    Safe += '_';
  // Disambiguate names that collide after sanitization. (Appends rather
  // than operator+: GCC 12 -O3 raises a false -Wrestrict on the latter.)
  std::string Path = Dir;
  return Path.append("/")
      .append(Safe)
      .append("-")
      .append(std::to_string(fnv1a(ModuleName) & 0xffff))
      .append(".slosum");
}

SummaryCache::LoadStatus SummaryCache::load(const std::string &ModuleName,
                                            ModuleSummary &Out,
                                            DiagnosticEngine *Diags) {
  if (!enabled()) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Misses;
    return LoadStatus::Miss;
  }
  std::string Path = pathFor(ModuleName);
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Misses;
    return LoadStatus::Miss;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Error;
  ModuleSummary S;
  if (!deserializeModuleSummary(Buf.str(), S, Error)) {
    if (Diags) {
      Diagnostic &D = Diags->report(DiagSeverity::Warning, "summary-cache",
                                    "ignoring unusable cache entry (" + Error +
                                        "); falling back to cold analysis");
      D.Function = ModuleName;
    }
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Corrupt;
    return LoadStatus::Corrupt;
  }
  Out = std::move(S);
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Stats.Hits;
  return LoadStatus::Hit;
}

bool SummaryCache::store(const ModuleSummary &S, DiagnosticEngine *Diags) {
  if (!enabled())
    return true;
  // Best-effort recursive creation; the open below reports real errors.
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);

  static std::atomic<unsigned> TmpCounter{0};
  std::string Path = pathFor(S.ModuleName);
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(TmpCounter.fetch_add(1));
  {
    std::ofstream OutF(Tmp, std::ios::binary | std::ios::trunc);
    if (!OutF) {
      if (Diags)
        Diags->report(DiagSeverity::Warning, "summary-cache",
                      "cannot write cache entry '" + Tmp + "'");
      return false;
    }
    OutF << serializeModuleSummary(S);
    OutF.flush();
    if (!OutF) {
      if (Diags)
        Diags->report(DiagSeverity::Warning, "summary-cache",
                      "short write to cache entry '" + Tmp + "'");
      std::remove(Tmp.c_str());
      return false;
    }
  }
  // rename(2) is atomic within a filesystem: readers see either the old
  // entry or the complete new one, never a prefix.
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    if (Diags)
      Diags->report(DiagSeverity::Warning, "summary-cache",
                    "cannot commit cache entry '" + Path + "'");
    std::remove(Tmp.c_str());
    return false;
  }
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Stats.Stores;
  return true;
}

SummaryCache::CacheStats SummaryCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}
