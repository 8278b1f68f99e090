//===- frontend/Parser.cpp - MiniC parser ---------------------------------===//

#include "frontend/Parser.h"

#include "support/Format.h"

using namespace slo;

namespace {
/// The deepest AST the parser builds, counted in levels: one per
/// statement, one per assignment, conditional and unary production
/// (so a parenthesis costs three), and one per operator or postfix
/// suffix in a chain. A chain's levels stay charged until its statement
/// ends, because each link pushes the chain's first operand one node
/// deeper. On an 8 MiB stack IRGen overflows near 3.7k nested `if`s
/// in an ASan build (and near 37k `!`s without sanitizers), while the
/// Table 3 workloads need fewer than 64 levels.
constexpr unsigned MaxDepth = 1024;
} // namespace

/// One level of recursive descent. A statement level gives back, on
/// exit, every level charged inside it; an expression level gives back
/// only its own, so the chains below it stay charged.
class Parser::Level {
public:
  Level(Parser &P, bool IsStmt)
      : P(P), Saved(P.Depth), IsStmt(IsStmt), Ok(P.descend()) {}
  Level(const Level &) = delete;
  Level &operator=(const Level &) = delete;
  ~Level() { P.Depth = IsStmt ? Saved : P.Depth - 1; }

  /// False past the depth limit: the production must not descend.
  bool ok() const { return Ok; }

private:
  Parser &P;
  unsigned Saved;
  bool IsStmt;
  bool Ok;
};

bool Parser::descend() {
  ++Depth;
  if (TooDeep)
    return false;
  if (Depth <= MaxDepth)
    return true;
  error(formatString("nesting exceeds the parser's depth limit of %u levels",
                     MaxDepth));
  TooDeep = true;
  Pos = Tokens.size() - 1; // Stop descending: skip to Eof.
  return false;
}

const Token &Parser::peek(unsigned Ahead) const {
  size_t I = Pos + Ahead;
  if (I >= Tokens.size())
    I = Tokens.size() - 1; // The stream is always Eof-terminated.
  return Tokens[I];
}

const Token &Parser::advance() {
  const Token &T = Tokens[Pos];
  if (Pos + 1 < Tokens.size())
    ++Pos;
  return T;
}

bool Parser::match(TokKind K) {
  if (!check(K))
    return false;
  advance();
  return true;
}

bool Parser::expect(TokKind K, const char *Context) {
  if (match(K))
    return true;
  error(formatString("expected %s %s, found %s", tokKindName(K), Context,
                     tokKindName(peek().Kind)));
  return false;
}

void Parser::error(const std::string &Msg) {
  HadError = true;
  if (TooDeep)
    return; // The depth diagnostic is the last one.
  Diags.push_back(formatString("line %u: %s", peek().Line, Msg.c_str()));
}

void Parser::synchronizeTopLevel() {
  // Skip to something that plausibly starts a new top-level declaration.
  while (!check(TokKind::Eof)) {
    if (match(TokKind::Semi))
      return;
    if (check(TokKind::KwStruct) || check(TokKind::KwExtern) || atTypeStart())
      return;
    advance();
  }
}

bool Parser::atTypeStart() const {
  switch (peek().Kind) {
  case TokKind::KwInt:
  case TokKind::KwLong:
  case TokKind::KwChar:
  case TokKind::KwShort:
  case TokKind::KwFloat:
  case TokKind::KwDouble:
  case TokKind::KwVoid:
  case TokKind::KwStruct:
    return true;
  default:
    return false;
  }
}

std::unique_ptr<TranslationUnit> Parser::parse() {
  auto TU = std::make_unique<TranslationUnit>();
  while (!check(TokKind::Eof)) {
    size_t Before = Pos;
    parseTopLevel(*TU);
    if (Pos == Before) {
      // Safety net: never loop without consuming.
      error(formatString("unexpected %s at top level",
                         tokKindName(peek().Kind)));
      advance();
    }
  }
  if (HadError)
    return nullptr;
  return TU;
}

void Parser::parseTopLevel(TranslationUnit &TU) {
  unsigned Line = peek().Line;

  // 'struct Name { ... };' is a type declaration; 'struct Name ident'
  // begins a function or global declaration.
  if (check(TokKind::KwStruct) && peek(1).is(TokKind::Identifier) &&
      peek(2).is(TokKind::LBrace)) {
    parseStructDecl(TU);
    return;
  }

  bool IsExtern = match(TokKind::KwExtern);
  if (!atTypeStart()) {
    error(formatString("expected a declaration, found %s",
                       tokKindName(peek().Kind)));
    synchronizeTopLevel();
    return;
  }

  TypeSpec Ty = parseTypeSpec();

  // Function-pointer global: type (*name)(params);
  if (check(TokKind::LParen)) {
    auto Proto = std::make_shared<FnProto>();
    Proto->Ret = Ty;
    advance(); // (
    expect(TokKind::Star, "in function pointer declarator");
    std::string Name = peek().Text;
    expect(TokKind::Identifier, "in function pointer declarator");
    expect(TokKind::RParen, "after function pointer name");
    expect(TokKind::LParen, "in function pointer declarator");
    if (!check(TokKind::RParen)) {
      do {
        Proto->Params.push_back(parseTypeSpec());
      } while (match(TokKind::Comma));
    }
    expect(TokKind::RParen, "after function pointer parameters");
    expect(TokKind::Semi, "after global declaration");
    GlobalDecl G;
    G.Ty.Base = TypeSpec::BK_FnPtr;
    G.Ty.Proto = Proto;
    G.Name = std::move(Name);
    G.Line = Line;
    TU.Order.push_back({2, TU.Globals.size()});
    TU.Globals.push_back(std::move(G));
    return;
  }

  std::string Name = peek().Text;
  if (!expect(TokKind::Identifier, "in declaration")) {
    synchronizeTopLevel();
    return;
  }

  if (check(TokKind::LParen)) {
    parseFuncRest(TU, std::move(Ty), std::move(Name), IsExtern, Line);
    return;
  }

  // Global variable.
  GlobalDecl G;
  G.Ty = std::move(Ty);
  G.Name = std::move(Name);
  G.Line = Line;
  if (match(TokKind::LBracket)) {
    if (check(TokKind::IntLiteral)) {
      G.ArraySize = static_cast<uint64_t>(peek().IntValue);
      advance();
    } else {
      error("global array size must be an integer literal");
    }
    expect(TokKind::RBracket, "after array size");
  }
  if (match(TokKind::Assign)) {
    bool Neg = match(TokKind::Minus);
    if (check(TokKind::IntLiteral)) {
      G.HasInit = true;
      G.InitValue = Neg ? -peek().IntValue : peek().IntValue;
      advance();
    } else {
      error("global initializer must be an integer literal");
    }
  }
  expect(TokKind::Semi, "after global declaration");
  TU.Order.push_back({2, TU.Globals.size()});
  TU.Globals.push_back(std::move(G));
}

void Parser::parseStructDecl(TranslationUnit &TU) {
  StructDecl S;
  S.Line = peek().Line;
  advance(); // struct
  S.Name = peek().Text;
  expect(TokKind::Identifier, "after 'struct'");
  expect(TokKind::LBrace, "in struct declaration");
  while (!check(TokKind::RBrace) && !check(TokKind::Eof)) {
    TypeSpec FieldTy = parseTypeSpec();
    // One or more declarators sharing the base type.
    do {
      StructFieldDecl F;
      F.Ty = FieldTy;
      // Per-declarator extra pointers: "struct t *a, b;"
      while (match(TokKind::Star))
        ++F.Ty.PtrDepth;
      // Function-pointer field: ret (*name)(params)
      if (check(TokKind::LParen)) {
        auto Proto = std::make_shared<FnProto>();
        Proto->Ret = F.Ty;
        advance();
        expect(TokKind::Star, "in function pointer field");
        F.Name = peek().Text;
        expect(TokKind::Identifier, "in function pointer field");
        expect(TokKind::RParen, "after function pointer field name");
        expect(TokKind::LParen, "in function pointer field");
        if (!check(TokKind::RParen)) {
          do {
            Proto->Params.push_back(parseTypeSpec());
          } while (match(TokKind::Comma));
        }
        expect(TokKind::RParen, "after function pointer field parameters");
        F.Ty = TypeSpec();
        F.Ty.Base = TypeSpec::BK_FnPtr;
        F.Ty.Proto = Proto;
      } else {
        F.Name = peek().Text;
        expect(TokKind::Identifier, "in field declaration");
        if (match(TokKind::LBracket)) {
          if (check(TokKind::IntLiteral)) {
            F.ArraySize = static_cast<uint64_t>(peek().IntValue);
            advance();
          } else {
            error("field array size must be an integer literal");
          }
          expect(TokKind::RBracket, "after field array size");
        }
      }
      S.Fields.push_back(std::move(F));
    } while (match(TokKind::Comma));
    expect(TokKind::Semi, "after field declaration");
  }
  expect(TokKind::RBrace, "at end of struct declaration");
  expect(TokKind::Semi, "after struct declaration");
  TU.Order.push_back({0, TU.Structs.size()});
  TU.Structs.push_back(std::move(S));
}

TypeSpec Parser::parseBaseType() {
  TypeSpec Ty;
  switch (peek().Kind) {
  case TokKind::KwVoid:
    Ty.Base = TypeSpec::BK_Void;
    break;
  case TokKind::KwChar:
    Ty.Base = TypeSpec::BK_Char;
    break;
  case TokKind::KwShort:
    Ty.Base = TypeSpec::BK_Short;
    break;
  case TokKind::KwInt:
    Ty.Base = TypeSpec::BK_Int;
    break;
  case TokKind::KwLong:
    Ty.Base = TypeSpec::BK_Long;
    break;
  case TokKind::KwFloat:
    Ty.Base = TypeSpec::BK_Float;
    break;
  case TokKind::KwDouble:
    Ty.Base = TypeSpec::BK_Double;
    break;
  case TokKind::KwStruct:
    Ty.Base = TypeSpec::BK_Struct;
    advance();
    Ty.StructName = peek().Text;
    expect(TokKind::Identifier, "after 'struct'");
    return Ty;
  default:
    error(formatString("expected a type, found %s",
                       tokKindName(peek().Kind)));
    return Ty;
  }
  advance();
  return Ty;
}

TypeSpec Parser::parseTypeSpec() {
  TypeSpec Ty = parseBaseType();
  while (match(TokKind::Star))
    ++Ty.PtrDepth;
  return Ty;
}

void Parser::parseFuncRest(TranslationUnit &TU, TypeSpec Ret,
                           std::string Name, bool IsExtern, unsigned Line) {
  FuncDecl F;
  F.Ret = std::move(Ret);
  F.Name = std::move(Name);
  F.IsExtern = IsExtern;
  F.Line = Line;
  expect(TokKind::LParen, "in function declaration");
  if (!check(TokKind::RParen)) {
    do {
      ParamDecl P;
      P.Ty = parseTypeSpec();
      if (check(TokKind::Identifier)) {
        P.Name = peek().Text;
        advance();
      }
      F.Params.push_back(std::move(P));
    } while (match(TokKind::Comma));
  }
  expect(TokKind::RParen, "after parameters");
  if (match(TokKind::Semi)) {
    TU.Order.push_back({1, TU.Functions.size()});
    TU.Functions.push_back(std::move(F));
    return;
  }
  F.Body = parseBlock();
  TU.Order.push_back({1, TU.Functions.size()});
  TU.Functions.push_back(std::move(F));
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

StmtPtr Parser::parseBlock() {
  unsigned Line = peek().Line;
  expect(TokKind::LBrace, "to open a block");
  auto B = std::make_unique<BlockStmt>(Line);
  while (!check(TokKind::RBrace) && !check(TokKind::Eof)) {
    size_t Before = Pos;
    B->Stmts.push_back(parseStmt());
    if (Pos == Before)
      advance(); // Never loop without consuming.
  }
  expect(TokKind::RBrace, "to close a block");
  return B;
}

StmtPtr Parser::parseVarDecl() {
  unsigned Line = peek().Line;
  TypeSpec Ty = parseTypeSpec();

  // Function-pointer local: ret (*name)(params);
  if (check(TokKind::LParen)) {
    auto Proto = std::make_shared<FnProto>();
    Proto->Ret = Ty;
    advance();
    expect(TokKind::Star, "in function pointer declarator");
    std::string Name = peek().Text;
    expect(TokKind::Identifier, "in function pointer declarator");
    expect(TokKind::RParen, "after function pointer name");
    expect(TokKind::LParen, "in function pointer declarator");
    if (!check(TokKind::RParen)) {
      do {
        Proto->Params.push_back(parseTypeSpec());
      } while (match(TokKind::Comma));
    }
    expect(TokKind::RParen, "after function pointer parameters");
    TypeSpec FpTy;
    FpTy.Base = TypeSpec::BK_FnPtr;
    FpTy.Proto = Proto;
    auto D = std::make_unique<VarDeclStmt>(std::move(FpTy), std::move(Name),
                                           Line);
    if (match(TokKind::Assign))
      D->Init = parseAssignment();
    expect(TokKind::Semi, "after declaration");
    return D;
  }

  std::string Name = peek().Text;
  expect(TokKind::Identifier, "in declaration");
  auto D = std::make_unique<VarDeclStmt>(std::move(Ty), std::move(Name), Line);
  if (match(TokKind::LBracket)) {
    if (check(TokKind::IntLiteral)) {
      D->ArraySize = static_cast<uint64_t>(peek().IntValue);
      advance();
    } else {
      error("local array size must be an integer literal");
    }
    expect(TokKind::RBracket, "after array size");
  }
  if (match(TokKind::Assign))
    D->Init = parseAssignment();
  expect(TokKind::Semi, "after declaration");
  return D;
}

StmtPtr Parser::parseIf() {
  unsigned Line = peek().Line;
  advance(); // if
  expect(TokKind::LParen, "after 'if'");
  ExprPtr C = parseExpr();
  expect(TokKind::RParen, "after condition");
  StmtPtr Then = parseStmt();
  StmtPtr Else;
  if (match(TokKind::KwElse))
    Else = parseStmt();
  return std::make_unique<IfStmt>(std::move(C), std::move(Then),
                                  std::move(Else), Line);
}

StmtPtr Parser::parseWhile() {
  unsigned Line = peek().Line;
  advance(); // while
  expect(TokKind::LParen, "after 'while'");
  ExprPtr C = parseExpr();
  expect(TokKind::RParen, "after condition");
  StmtPtr Body = parseStmt();
  return std::make_unique<WhileStmt>(std::move(C), std::move(Body), Line);
}

StmtPtr Parser::parseFor() {
  unsigned Line = peek().Line;
  advance(); // for
  expect(TokKind::LParen, "after 'for'");
  auto F = std::make_unique<ForStmt>(Line);
  if (!check(TokKind::Semi)) {
    if (atTypeStart()) {
      F->Init = parseVarDecl(); // Consumes the ';'.
    } else {
      ExprPtr E = parseExpr();
      F->Init = std::make_unique<ExprStmt>(std::move(E), Line);
      expect(TokKind::Semi, "after for-init");
    }
  } else {
    advance();
  }
  if (!check(TokKind::Semi))
    F->Cond = parseExpr();
  expect(TokKind::Semi, "after for-condition");
  if (!check(TokKind::RParen))
    F->Step = parseExpr();
  expect(TokKind::RParen, "after for-step");
  F->Body = parseStmt();
  return F;
}

StmtPtr Parser::parseStmt() {
  unsigned Line = peek().Line;
  Level L(*this, /*IsStmt=*/true);
  if (!L.ok())
    return std::make_unique<EmptyStmt>(Line);
  switch (peek().Kind) {
  case TokKind::LBrace:
    return parseBlock();
  case TokKind::KwIf:
    return parseIf();
  case TokKind::KwWhile:
    return parseWhile();
  case TokKind::KwFor:
    return parseFor();
  case TokKind::KwReturn: {
    advance();
    ExprPtr E;
    if (!check(TokKind::Semi))
      E = parseExpr();
    expect(TokKind::Semi, "after 'return'");
    return std::make_unique<ReturnStmt>(std::move(E), Line);
  }
  case TokKind::KwBreak:
    advance();
    expect(TokKind::Semi, "after 'break'");
    return std::make_unique<BreakStmt>(Line);
  case TokKind::KwContinue:
    advance();
    expect(TokKind::Semi, "after 'continue'");
    return std::make_unique<ContinueStmt>(Line);
  case TokKind::Semi:
    advance();
    return std::make_unique<EmptyStmt>(Line);
  default:
    if (atTypeStart())
      return parseVarDecl();
    ExprPtr E = parseExpr();
    expect(TokKind::Semi, "after expression");
    return std::make_unique<ExprStmt>(std::move(E), Line);
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

ExprPtr Parser::parseExpr() { return parseAssignment(); }

ExprPtr Parser::parseAssignment() {
  Level L(*this, /*IsStmt=*/false);
  if (!L.ok())
    return std::make_unique<IntLitExpr>(0, peek().Line);
  ExprPtr LHS = parseConditional();
  unsigned Line = peek().Line;
  AssignExpr::AssignOp Op;
  switch (peek().Kind) {
  case TokKind::Assign:
    Op = AssignExpr::AO_Assign;
    break;
  case TokKind::PlusAssign:
    Op = AssignExpr::AO_Add;
    break;
  case TokKind::MinusAssign:
    Op = AssignExpr::AO_Sub;
    break;
  case TokKind::StarAssign:
    Op = AssignExpr::AO_Mul;
    break;
  case TokKind::SlashAssign:
    Op = AssignExpr::AO_Div;
    break;
  default:
    return LHS;
  }
  advance();
  ExprPtr RHS = parseAssignment(); // Right-associative.
  return std::make_unique<AssignExpr>(Op, std::move(LHS), std::move(RHS),
                                      Line);
}

ExprPtr Parser::parseConditional() {
  Level L(*this, /*IsStmt=*/false);
  if (!L.ok())
    return std::make_unique<IntLitExpr>(0, peek().Line);
  ExprPtr C = parseBinaryRHS(0, parseUnary());
  if (!check(TokKind::Question))
    return C;
  unsigned Line = peek().Line;
  advance();
  ExprPtr T = parseAssignment();
  expect(TokKind::Colon, "in conditional expression");
  ExprPtr F = parseConditional();
  return std::make_unique<CondExpr>(std::move(C), std::move(T), std::move(F),
                                    Line);
}

namespace {
struct BinOpInfo {
  BinaryExpr::BinOp Op;
  int Prec;
};
} // namespace

static bool getBinOp(TokKind K, BinOpInfo &Info) {
  switch (K) {
  case TokKind::PipePipe:
    Info = {BinaryExpr::BO_LOr, 1};
    return true;
  case TokKind::AmpAmp:
    Info = {BinaryExpr::BO_LAnd, 2};
    return true;
  case TokKind::Pipe:
    Info = {BinaryExpr::BO_Or, 3};
    return true;
  case TokKind::Caret:
    Info = {BinaryExpr::BO_Xor, 4};
    return true;
  case TokKind::Amp:
    Info = {BinaryExpr::BO_And, 5};
    return true;
  case TokKind::EqEq:
    Info = {BinaryExpr::BO_EQ, 6};
    return true;
  case TokKind::NotEq:
    Info = {BinaryExpr::BO_NE, 6};
    return true;
  case TokKind::Less:
    Info = {BinaryExpr::BO_LT, 7};
    return true;
  case TokKind::LessEq:
    Info = {BinaryExpr::BO_LE, 7};
    return true;
  case TokKind::Greater:
    Info = {BinaryExpr::BO_GT, 7};
    return true;
  case TokKind::GreaterEq:
    Info = {BinaryExpr::BO_GE, 7};
    return true;
  case TokKind::Shl:
    Info = {BinaryExpr::BO_Shl, 8};
    return true;
  case TokKind::Shr:
    Info = {BinaryExpr::BO_Shr, 8};
    return true;
  case TokKind::Plus:
    Info = {BinaryExpr::BO_Add, 9};
    return true;
  case TokKind::Minus:
    Info = {BinaryExpr::BO_Sub, 9};
    return true;
  case TokKind::Star:
    Info = {BinaryExpr::BO_Mul, 10};
    return true;
  case TokKind::Slash:
    Info = {BinaryExpr::BO_Div, 10};
    return true;
  case TokKind::Percent:
    Info = {BinaryExpr::BO_Rem, 10};
    return true;
  default:
    return false;
  }
}

ExprPtr Parser::parseBinaryRHS(int MinPrec, ExprPtr LHS) {
  while (true) {
    BinOpInfo Info;
    if (!getBinOp(peek().Kind, Info) || Info.Prec < MinPrec)
      return LHS;
    unsigned Line = peek().Line;
    if (!descend())
      return LHS;
    advance();
    ExprPtr RHS = parseUnary();
    BinOpInfo Next;
    while (getBinOp(peek().Kind, Next) && Next.Prec > Info.Prec)
      RHS = parseBinaryRHS(Next.Prec, std::move(RHS));
    LHS = std::make_unique<BinaryExpr>(Info.Op, std::move(LHS),
                                       std::move(RHS), Line);
  }
}

ExprPtr Parser::parseUnary() {
  unsigned Line = peek().Line;
  Level L(*this, /*IsStmt=*/false);
  if (!L.ok())
    return std::make_unique<IntLitExpr>(0, Line);
  switch (peek().Kind) {
  case TokKind::Minus:
    advance();
    return std::make_unique<UnaryExpr>(UnaryExpr::UO_Neg, parseUnary(), Line);
  case TokKind::Bang:
    advance();
    return std::make_unique<UnaryExpr>(UnaryExpr::UO_LogicalNot, parseUnary(),
                                       Line);
  case TokKind::Tilde:
    advance();
    return std::make_unique<UnaryExpr>(UnaryExpr::UO_BitNot, parseUnary(),
                                       Line);
  case TokKind::Star:
    advance();
    return std::make_unique<UnaryExpr>(UnaryExpr::UO_Deref, parseUnary(),
                                       Line);
  case TokKind::Amp:
    advance();
    return std::make_unique<UnaryExpr>(UnaryExpr::UO_AddrOf, parseUnary(),
                                       Line);
  case TokKind::PlusPlus:
    advance();
    return std::make_unique<IncDecExpr>(/*IsInc=*/true, /*IsPrefix=*/true,
                                        parseUnary(), Line);
  case TokKind::MinusMinus:
    advance();
    return std::make_unique<IncDecExpr>(/*IsInc=*/false, /*IsPrefix=*/true,
                                        parseUnary(), Line);
  case TokKind::KwSizeof: {
    advance();
    expect(TokKind::LParen, "after 'sizeof'");
    TypeSpec Ty = parseTypeSpec();
    expect(TokKind::RParen, "after sizeof type");
    return std::make_unique<SizeofTypeExpr>(std::move(Ty), Line);
  }
  case TokKind::LParen:
    // Cast: '(' type ')' unary. MiniC types always start with a keyword.
    if (peek(1).is(TokKind::KwStruct) || peek(1).is(TokKind::KwInt) ||
        peek(1).is(TokKind::KwLong) || peek(1).is(TokKind::KwChar) ||
        peek(1).is(TokKind::KwShort) || peek(1).is(TokKind::KwFloat) ||
        peek(1).is(TokKind::KwDouble) || peek(1).is(TokKind::KwVoid)) {
      advance();
      TypeSpec Ty = parseTypeSpec();
      expect(TokKind::RParen, "after cast type");
      return std::make_unique<CastExpr>(std::move(Ty), parseUnary(), Line);
    }
    return parsePostfix();
  default:
    return parsePostfix();
  }
}

ExprPtr Parser::parsePostfix() {
  ExprPtr E = parsePrimary();
  while (true) {
    unsigned Line = peek().Line;
    if (match(TokKind::LBracket)) {
      ExprPtr Idx = parseExpr();
      expect(TokKind::RBracket, "after index");
      E = std::make_unique<IndexExpr>(std::move(E), std::move(Idx), Line);
    } else if (match(TokKind::Dot)) {
      std::string Name = peek().Text;
      expect(TokKind::Identifier, "after '.'");
      E = std::make_unique<MemberExpr>(std::move(E), std::move(Name),
                                       /*IsArrow=*/false, Line);
    } else if (match(TokKind::Arrow)) {
      std::string Name = peek().Text;
      expect(TokKind::Identifier, "after '->'");
      E = std::make_unique<MemberExpr>(std::move(E), std::move(Name),
                                       /*IsArrow=*/true, Line);
    } else if (match(TokKind::LParen)) {
      std::vector<ExprPtr> Args;
      if (!check(TokKind::RParen)) {
        do {
          Args.push_back(parseAssignment());
        } while (match(TokKind::Comma));
      }
      expect(TokKind::RParen, "after call arguments");
      E = std::make_unique<CallExpr>(std::move(E), std::move(Args), Line);
    } else if (match(TokKind::PlusPlus)) {
      E = std::make_unique<IncDecExpr>(/*IsInc=*/true, /*IsPrefix=*/false,
                                       std::move(E), Line);
    } else if (match(TokKind::MinusMinus)) {
      E = std::make_unique<IncDecExpr>(/*IsInc=*/false, /*IsPrefix=*/false,
                                       std::move(E), Line);
    } else {
      return E;
    }
    // Each suffix pushes the chain one node deeper.
    if (!descend())
      return E;
  }
}

ExprPtr Parser::parsePrimary() {
  unsigned Line = peek().Line;
  switch (peek().Kind) {
  case TokKind::IntLiteral: {
    int64_t V = peek().IntValue;
    advance();
    return std::make_unique<IntLitExpr>(V, Line);
  }
  case TokKind::FloatLiteral: {
    double V = peek().FloatValue;
    advance();
    return std::make_unique<FloatLitExpr>(V, Line);
  }
  case TokKind::Identifier: {
    std::string Name = peek().Text;
    advance();
    return std::make_unique<VarRefExpr>(std::move(Name), Line);
  }
  case TokKind::LParen: {
    advance();
    ExprPtr E = parseExpr();
    expect(TokKind::RParen, "after parenthesized expression");
    return E;
  }
  default:
    error(formatString("expected an expression, found %s",
                       tokKindName(peek().Kind)));
    advance();
    return std::make_unique<IntLitExpr>(0, Line);
  }
}
