//===- lang/Eval.cpp - Reference AST evaluator -----------------------------===//

#include "lang/Eval.h"

#include "support/Serialize.h"

#include <cstring>
#include <map>

using namespace bsched;
using namespace bsched::lang;

namespace {

union Value {
  int64_t I;
  double F;
};

class Evaluator {
public:
  Evaluator(const Program &P, uint64_t MaxStmts) : P(P), MaxStmts(MaxStmts) {}

  EvalResult run() {
    for (const ArrayDecl &A : P.Arrays) {
      int64_t N = 1;
      for (int64_t D : A.Dims)
        N *= D;
      // Zero-initialized, as in the IR machine's memory image.
      Storage[A.Name].assign(static_cast<size_t>(N), 0);
    }
    for (const VarDecl &V : P.Vars) {
      Value Val;
      if (V.Ty == Type::Int)
        Val.I = V.IntInit;
      else
        Val.F = V.FpInit;
      Vars[V.Name] = Val;
    }
    for (const StmtPtr &S : P.Body) {
      execStmt(*S);
      if (!R.Error.empty())
        break;
    }
    if (R.Error.empty())
      R.Checksum = checksum();
    return R;
  }

private:
  const Program &P;
  uint64_t MaxStmts;
  EvalResult R;
  std::map<std::string, std::vector<uint64_t>> Storage; ///< raw 64-bit cells.
  std::map<std::string, Value> Vars; ///< scalars and live loop variables.

  void fail(const std::string &Msg) {
    if (R.Error.empty())
      R.Error = Msg;
  }

  bool budget() {
    if (++R.StmtCount > MaxStmts) {
      fail("statement budget exhausted");
      return false;
    }
    return R.Error.empty();
  }

  /// Flattened element index of an array reference.
  int64_t elemIndex(const Expr &E, const ArrayDecl &A) {
    int64_t Idx = 0;
    if (A.RowMajor) {
      for (size_t K = 0; K != E.Args.size(); ++K) {
        int64_t Sub = evalExpr(*E.Args[K]).I;
        if (Sub < 0 || Sub >= A.Dims[K]) {
          fail("subscript out of bounds on '" + A.Name + "'");
          return 0;
        }
        Idx = Idx * A.Dims[K] + Sub;
      }
    } else {
      int64_t Stride = 1;
      for (size_t K = 0; K != E.Args.size(); ++K) {
        int64_t Sub = evalExpr(*E.Args[K]).I;
        if (Sub < 0 || Sub >= A.Dims[K]) {
          fail("subscript out of bounds on '" + A.Name + "'");
          return 0;
        }
        Idx += Sub * Stride;
        Stride *= A.Dims[K];
      }
    }
    return Idx;
  }

  Value evalExpr(const Expr &E) {
    Value V;
    V.I = 0;
    if (!R.Error.empty())
      return V;
    switch (E.Kind) {
    case ExprKind::IntLit:
      V.I = E.IntVal;
      return V;
    case ExprKind::FpLit:
      V.F = E.FpVal;
      return V;
    case ExprKind::VarRef: {
      auto It = Vars.find(E.Name);
      if (It == Vars.end()) {
        fail("unknown variable '" + E.Name + "'");
        return V;
      }
      return It->second;
    }
    case ExprKind::ArrayRef: {
      const ArrayDecl *A = P.findArray(E.Name);
      if (!A) {
        fail("unknown array '" + E.Name + "'");
        return V;
      }
      int64_t Idx = elemIndex(E, *A);
      uint64_t Raw = Storage[E.Name][static_cast<size_t>(Idx)];
      if (A->ElemTy == Type::Int)
        V.I = static_cast<int64_t>(Raw);
      else
        std::memcpy(&V.F, &Raw, 8);
      return V;
    }
    case ExprKind::Unary: {
      Value A = evalExpr(*E.Args[0]);
      switch (E.UOp) {
      case UnOp::Neg:
        // Defined as (0 - x), matching the lowered code: the Alpha-like ISA
        // has no sign-flip negate, so -(+0.0) is +0.0 and NaN signs are
        // never flipped. Keeps the oracle and the machine bit-identical.
        if (E.Ty == Type::Fp)
          V.F = 0.0 - A.F;
        else
          V.I = -A.I;
        return V;
      case UnOp::IToF:
        V.F = static_cast<double>(A.I);
        return V;
      case UnOp::Not:
        V.I = A.I == 0 ? 1 : 0;
        return V;
      }
      return V;
    }
    case ExprKind::Binary: {
      Value A = evalExpr(*E.Args[0]);
      Value B = evalExpr(*E.Args[1]);
      bool Fp = E.Args[0]->Ty == Type::Fp;
      switch (E.BOp) {
      case BinOp::Add:
        if (Fp) V.F = A.F + B.F; else V.I = A.I + B.I;
        return V;
      case BinOp::Sub:
        if (Fp) V.F = A.F - B.F; else V.I = A.I - B.I;
        return V;
      case BinOp::Mul:
        if (Fp) V.F = A.F * B.F; else V.I = A.I * B.I;
        return V;
      case BinOp::Div:
        V.F = A.F / B.F;
        return V;
      case BinOp::Lt:
        V.I = (Fp ? A.F < B.F : A.I < B.I) ? 1 : 0;
        return V;
      case BinOp::Le:
        V.I = (Fp ? A.F <= B.F : A.I <= B.I) ? 1 : 0;
        return V;
      case BinOp::Gt:
        V.I = (Fp ? A.F > B.F : A.I > B.I) ? 1 : 0;
        return V;
      case BinOp::Ge:
        V.I = (Fp ? A.F >= B.F : A.I >= B.I) ? 1 : 0;
        return V;
      case BinOp::Eq:
        V.I = (Fp ? A.F == B.F : A.I == B.I) ? 1 : 0;
        return V;
      case BinOp::Ne:
        V.I = (Fp ? A.F != B.F : A.I != B.I) ? 1 : 0;
        return V;
      case BinOp::And:
        V.I = (A.I != 0 && B.I != 0) ? 1 : 0;
        return V;
      case BinOp::Or:
        V.I = (A.I != 0 || B.I != 0) ? 1 : 0;
        return V;
      }
      return V;
    }
    }
    return V;
  }

  void execStmt(const Stmt &S) {
    if (!budget())
      return;
    switch (S.Kind) {
    case StmtKind::Assign: {
      Value V = evalExpr(*S.Rhs);
      if (S.Lhs->Kind == ExprKind::VarRef) {
        Vars[S.Lhs->Name] = V;
        return;
      }
      const ArrayDecl *A = P.findArray(S.Lhs->Name);
      if (!A) {
        fail("unknown array '" + S.Lhs->Name + "'");
        return;
      }
      int64_t Idx = elemIndex(*S.Lhs, *A);
      uint64_t Raw;
      if (A->ElemTy == Type::Int)
        Raw = static_cast<uint64_t>(V.I);
      else
        std::memcpy(&Raw, &V.F, 8);
      if (R.Error.empty())
        Storage[S.Lhs->Name][static_cast<size_t>(Idx)] = Raw;
      return;
    }
    case StmtKind::For: {
      int64_t Lo = evalExpr(*S.Lo).I;
      int64_t Hi = evalExpr(*S.Hi).I;
      bool Shadowed = Vars.count(S.LoopVar) != 0;
      Value Saved;
      if (Shadowed)
        Saved = Vars[S.LoopVar];
      for (int64_t I = Lo; I < Hi && R.Error.empty(); I += S.Step) {
        Vars[S.LoopVar].I = I;
        for (const StmtPtr &C : S.Body)
          execStmt(*C);
      }
      if (Shadowed)
        Vars[S.LoopVar] = Saved;
      else
        Vars.erase(S.LoopVar);
      return;
    }
    case StmtKind::If: {
      const StmtList &Arm = evalExpr(*S.Cond).I != 0 ? S.Then : S.Else;
      for (const StmtPtr &C : Arm)
        execStmt(*C);
      return;
    }
    }
  }

  uint64_t checksum() const {
    Fnv1a H;
    for (const ArrayDecl &A : P.Arrays)
      if (A.IsOutput)
        for (uint64_t Cell : Storage.at(A.Name))
          H.bytes(&Cell, 8);
    return H.get();
  }
};

} // namespace

EvalResult lang::evalProgram(const Program &P, uint64_t MaxStmts) {
  return Evaluator(P, MaxStmts).run();
}
