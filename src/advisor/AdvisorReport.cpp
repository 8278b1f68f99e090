//===- advisor/AdvisorReport.cpp - The advisory tool ----------------------===//

#include "advisor/AdvisorReport.h"

#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <sstream>

using namespace slo;

namespace {

/// Ten-character hotness bar: '#' per 10 percent.
std::string hotnessBar(double RelPercent) {
  unsigned Filled =
      static_cast<unsigned>(std::lround(std::min(RelPercent, 100.0) / 10.0));
  // Appends rather than "|" + ...: GCC 12 -O3 raises a false -Wrestrict.
  std::string Bar = "|";
  return Bar.append(Filled, '#').append(10 - Filled, '-').append("|");
}

/// Eight-character read/write mix bar. More reads than writes: uppercase
/// 'R' with lowercase 'w'; otherwise lowercase 'r' with uppercase 'W'.
std::string readWriteBar(double Reads, double Writes) {
  double Total = Reads + Writes;
  if (Total <= 0.0)
    return "|........|";
  unsigned NR =
      static_cast<unsigned>(std::lround(8.0 * Reads / Total));
  char RC = Reads >= Writes ? 'R' : 'r';
  char WC = Reads >= Writes ? 'w' : 'W';
  std::string Bar = "|";
  return Bar.append(NR, RC).append(8 - NR, WC).append("|");
}

/// Orders the types hottest first.
std::vector<RecordType *> typesByHotness(const AdvisorInputs &In) {
  std::vector<RecordType *> Out;
  for (RecordType *R : In.Stats->types())
    Out.push_back(R);
  std::stable_sort(Out.begin(), Out.end(),
                   [&](RecordType *A, RecordType *B) {
                     return In.Stats->get(A)->typeHotness() >
                            In.Stats->get(B)->typeHotness();
                   });
  return Out;
}

const TypePlan *findPlan(const AdvisorInputs &In, RecordType *Rec) {
  if (!In.Plans)
    return nullptr;
  for (const TypePlan &P : *In.Plans)
    if (P.Rec == Rec)
      return &P;
  return nullptr;
}

/// The §3.3 multi-threading note: fields that are written at all are
/// candidates for separation from read-mostly fields to reduce coherency
/// traffic ("fields should additionally be grouped by read and write
/// counts").
void appendMtNotes(std::ostringstream &OS, const TypeFieldStats &S) {
  std::vector<unsigned> ReadMostly, WriteHeavy;
  for (unsigned I = 0; I < S.Rec->getNumFields(); ++I) {
    if (!S.isReferenced(I))
      continue;
    if (S.Writes[I] > S.Reads[I] * 0.25)
      WriteHeavy.push_back(I);
    else
      ReadMostly.push_back(I);
  }
  if (ReadMostly.empty() || WriteHeavy.empty())
    return;
  OS << "  MT note : separate write-heavy fields {";
  for (size_t I = 0; I < WriteHeavy.size(); ++I)
    OS << (I ? ", " : "") << S.Rec->getField(WriteHeavy[I]).Name;
  OS << "} from read-mostly fields {";
  for (size_t I = 0; I < ReadMostly.size(); ++I)
    OS << (I ? ", " : "") << S.Rec->getField(ReadMostly[I]).Name;
  OS << "} to avoid coherency misses\n";
}

} // namespace

std::string slo::renderTypeReport(const AdvisorInputs &In, RecordType *Rec) {
  const TypeFieldStats *S = In.Stats->get(Rec);
  const TypeLegality &L = In.Legal->get(Rec);
  std::ostringstream OS;

  // Relative/absolute type hotness over all types.
  double MaxType = 0.0, TotalType = 0.0;
  for (RecordType *R : In.Stats->types()) {
    double H = In.Stats->get(R)->typeHotness();
    MaxType = std::max(MaxType, H);
    TotalType += H;
  }
  double Mine = S->typeHotness();
  double Rel = MaxType > 0 ? 100.0 * Mine / MaxType : 0.0;
  double Abs = TotalType > 0 ? 100.0 * Mine / TotalType : 0.0;

  OS << "Type     : " << Rec->getRecordName() << "\n";
  OS << formatString("Fields   : %u, %llu bytes\n", Rec->getNumFields(),
                     static_cast<unsigned long long>(Rec->getSize()));
  OS << formatString("Hotness  : %.1f%% rel, %.1f%% abs\n", Rel, Abs);
  if (const TypePlan *P = findPlan(In, Rec)) {
    OS << "Transform: " << transformKindName(P->Kind);
    if (!P->Reason.empty())
      OS << " (" << P->Reason << ")";
    OS << "\n";
  }
  OS << "Status   : "
     << (L.isLegal() ? "*OK*" : violationMaskToString(L.Violations));
  std::string Attrs = L.Attrs.toString();
  if (!Attrs.empty())
    OS << " / " << Attrs;
  OS << "\n";
  if (In.Refined) {
    if (const TypeRefinement *TR = In.Refined->get(Rec)) {
      if (!L.isLegal() && TR->ProvenLegal)
        OS << "Proven   : legal ("
           << (TR->TransformSafe ? "transformable" : "advisory only") << ")\n";
      for (const SiteProof &P : TR->Proofs)
        OS << "  proof  : " << (P.Discharged ? "[ok]      " : "[blocked] ")
           << describeViolationSite(*P.Site) << " -- " << P.Fact << "\n";
    }
  }
  OS << std::string(69, '-') << "\n";

  std::vector<double> RelHot = S->relativeHotness();

  // Maximum miss count of the type (for the per-field miss percentage).
  double MaxMisses = 0.0;
  if (In.Cache) {
    for (unsigned I = 0; I < Rec->getNumFields(); ++I)
      if (const FieldCacheStats *C = In.Cache->getFieldStats(Rec, I))
        MaxMisses = std::max(MaxMisses, static_cast<double>(C->Misses));
  }
  double MaxEdge = 0.0;
  for (const auto &[Edge, W] : S->Affinity)
    MaxEdge = std::max(MaxEdge, W);

  for (unsigned I = 0; I < Rec->getNumFields(); ++I) {
    const Field &F = Rec->getField(I);
    OS << formatString("Field[%2u] off: %3llu:0 %s \"%s\"", I,
                       static_cast<unsigned long long>(F.Offset),
                       hotnessBar(RelHot[I]).c_str(), F.Name.c_str());
    if (!S->isReferenced(I)) {
      OS << " *unused*\n";
      continue;
    }
    if (S->Writes[I] > 0.0 && S->Reads[I] <= 0.0)
      OS << " *dead*";
    OS << "\n";
    OS << formatString("  hot  : %5.1f%%  weight: %.3e\n", RelHot[I],
                       S->Hotness[I]);
    OS << formatString("  read : %.3e, write: %.3e  %s\n", S->Reads[I],
                       S->Writes[I],
                       readWriteBar(S->Reads[I], S->Writes[I]).c_str());
    if (In.Cache) {
      if (const FieldCacheStats *C = In.Cache->getFieldStats(Rec, I)) {
        double MissPct = MaxMisses > 0
                             ? 100.0 * static_cast<double>(C->Misses) /
                                   MaxMisses
                             : 0.0;
        OS << formatString("  miss : %llu, %.1f%%, lat: %.1f [cyc]\n",
                           static_cast<unsigned long long>(C->Misses),
                           MissPct, C->averageLatency());
      }
    }
    // Unidirectional affinities in declaration order.
    for (const auto &[Edge, W] : S->Affinity) {
      if (Edge.first != I)
        continue;
      double Pct = MaxEdge > 0 ? 100.0 * W / MaxEdge : 0.0;
      OS << formatString("  aff  : %5.1f%% --> %s\n", Pct,
                         Rec->getField(Edge.second).Name.c_str());
    }
  }
  if (In.MtNotes)
    appendMtNotes(OS, *S);
  return OS.str();
}

std::string slo::renderAdvisorReport(const AdvisorInputs &In) {
  std::ostringstream OS;
  OS << "===== Structure Layout Advisory Report =====\n";
  OS << "(types sorted by hotness; legality status codes follow the "
        "paper's abbreviations)\n\n";
  unsigned Printed = 0;
  for (RecordType *Rec : typesByHotness(In)) {
    const TypeFieldStats *S = In.Stats->get(Rec);
    if (In.SkipColdTypes && S->typeHotness() <= 0.0)
      continue;
    if (In.MaxTypes && Printed >= In.MaxTypes)
      break;
    OS << renderTypeReport(In, Rec) << "\n";
    ++Printed;
  }
  if (Printed == 0)
    OS << "(no referenced record types)\n";
  return OS.str();
}

std::string slo::renderVcgGraph(const TypeFieldStats &Stats) {
  std::ostringstream OS;
  double MaxEdge = 0.0;
  for (const auto &[Edge, W] : Stats.Affinity)
    MaxEdge = std::max(MaxEdge, W);
  std::vector<double> Rel = Stats.relativeHotness();

  OS << "graph: {\n";
  OS << "  title: \"affinity:" << Stats.Rec->getRecordName() << "\"\n";
  OS << "  layoutalgorithm: forcedir\n";
  for (unsigned I = 0; I < Stats.Rec->getNumFields(); ++I) {
    const char *Color = Rel[I] >= 66.0   ? "red"
                        : Rel[I] >= 33.0 ? "orange"
                        : Rel[I] > 0.0   ? "yellow"
                                         : "white";
    OS << formatString(
        "  node: { title: \"%s\" label: \"%s\\n%.1f%%\" color: %s }\n",
        Stats.Rec->getField(I).Name.c_str(),
        Stats.Rec->getField(I).Name.c_str(), Rel[I], Color);
  }
  for (const auto &[Edge, W] : Stats.Affinity) {
    if (Edge.first == Edge.second)
      continue; // Self-affinity is shown by node color already.
    double Pct = MaxEdge > 0 ? 100.0 * W / MaxEdge : 0.0;
    unsigned Thickness = Pct >= 66.0 ? 4 : Pct >= 33.0 ? 2 : 1;
    OS << formatString("  edge: { sourcename: \"%s\" targetname: \"%s\" "
                       "thickness: %u label: \"%.0f%%\" }\n",
                       Stats.Rec->getField(Edge.first).Name.c_str(),
                       Stats.Rec->getField(Edge.second).Name.c_str(),
                       Thickness, Pct);
  }
  OS << "}\n";
  return OS.str();
}
