#include "ir/expr.h"

namespace igc::ir {
namespace {

ExprPtr make_expr(Expr e) { return std::make_shared<const Expr>(std::move(e)); }

DType result_dtype(BinOp op, const ExprPtr& a, const ExprPtr& b) {
  switch (op) {
    case BinOp::kLT:
    case BinOp::kLE:
    case BinOp::kGT:
    case BinOp::kGE:
    case BinOp::kEQ:
    case BinOp::kAnd:
    case BinOp::kOr:
      return DType::kInt32;  // booleans are int in the IR
    default:
      // Float is contagious.
      if (a->dtype == DType::kFloat32 || b->dtype == DType::kFloat32) {
        return DType::kFloat32;
      }
      return DType::kInt32;
  }
}

}  // namespace

ExprPtr imm(int64_t v) {
  Expr e;
  e.kind = ExprKind::kIntImm;
  e.dtype = DType::kInt32;
  e.int_val = v;
  return make_expr(std::move(e));
}

ExprPtr fimm(double v) {
  Expr e;
  e.kind = ExprKind::kFloatImm;
  e.dtype = DType::kFloat32;
  e.float_val = v;
  return make_expr(std::move(e));
}

ExprPtr var(const std::string& name, DType dtype) {
  Expr e;
  e.kind = ExprKind::kVar;
  e.dtype = dtype;
  e.name = name;
  return make_expr(std::move(e));
}

ExprPtr binary(BinOp op, ExprPtr a, ExprPtr b) {
  IGC_CHECK(a && b);
  Expr e;
  e.kind = ExprKind::kBinary;
  e.op = op;
  e.dtype = result_dtype(op, a, b);
  e.a = std::move(a);
  e.b = std::move(b);
  return make_expr(std::move(e));
}

ExprPtr add(ExprPtr a, ExprPtr b) { return binary(BinOp::kAdd, std::move(a), std::move(b)); }
ExprPtr sub(ExprPtr a, ExprPtr b) { return binary(BinOp::kSub, std::move(a), std::move(b)); }
ExprPtr mul(ExprPtr a, ExprPtr b) { return binary(BinOp::kMul, std::move(a), std::move(b)); }
ExprPtr div(ExprPtr a, ExprPtr b) { return binary(BinOp::kDiv, std::move(a), std::move(b)); }
ExprPtr mod(ExprPtr a, ExprPtr b) { return binary(BinOp::kMod, std::move(a), std::move(b)); }
ExprPtr min_e(ExprPtr a, ExprPtr b) { return binary(BinOp::kMin, std::move(a), std::move(b)); }
ExprPtr max_e(ExprPtr a, ExprPtr b) { return binary(BinOp::kMax, std::move(a), std::move(b)); }
ExprPtr lt(ExprPtr a, ExprPtr b) { return binary(BinOp::kLT, std::move(a), std::move(b)); }
ExprPtr lte(ExprPtr a, ExprPtr b) { return binary(BinOp::kLE, std::move(a), std::move(b)); }
ExprPtr logical_and(ExprPtr a, ExprPtr b) {
  return binary(BinOp::kAnd, std::move(a), std::move(b));
}

ExprPtr select(ExprPtr cond, ExprPtr then_v, ExprPtr else_v) {
  IGC_CHECK(cond && then_v && else_v);
  Expr e;
  e.kind = ExprKind::kSelect;
  e.dtype = then_v->dtype;
  e.a = std::move(cond);
  e.b = std::move(then_v);
  e.c = std::move(else_v);
  return make_expr(std::move(e));
}

ExprPtr load(const std::string& buffer, ExprPtr index, DType dtype) {
  IGC_CHECK(index);
  Expr e;
  e.kind = ExprKind::kLoad;
  e.dtype = dtype;
  e.name = buffer;
  e.a = std::move(index);
  return make_expr(std::move(e));
}

bool is_bound(IterKind k) {
  switch (k) {
    case IterKind::kBlockX:
    case IterKind::kBlockY:
    case IterKind::kBlockZ:
    case IterKind::kThreadX:
    case IterKind::kThreadY:
    case IterKind::kThreadZ:
      return true;
    default:
      return false;
  }
}

namespace {
StmtPtr make_stmt(Stmt s) { return std::make_shared<const Stmt>(std::move(s)); }
}  // namespace

StmtPtr make_for(IterVar iv, std::vector<StmtPtr> body) {
  IGC_CHECK_GT(iv.extent, 0);
  Stmt s;
  s.kind = StmtKind::kFor;
  s.iv = std::move(iv);
  s.body = std::move(body);
  return make_stmt(std::move(s));
}

StmtPtr make_store(const std::string& buffer, ExprPtr index, ExprPtr value) {
  IGC_CHECK(index && value);
  Stmt s;
  s.kind = StmtKind::kStore;
  s.buffer = buffer;
  s.index = std::move(index);
  s.value = std::move(value);
  return make_stmt(std::move(s));
}

StmtPtr make_if(ExprPtr cond, std::vector<StmtPtr> body) {
  IGC_CHECK(cond);
  Stmt s;
  s.kind = StmtKind::kIf;
  s.cond = std::move(cond);
  s.body = std::move(body);
  return make_stmt(std::move(s));
}

StmtPtr make_decl_local(const std::string& name, DType dtype, ExprPtr init) {
  IGC_CHECK(init);
  Stmt s;
  s.kind = StmtKind::kDeclLocal;
  s.buffer = name;
  s.dtype = dtype;
  s.value = std::move(init);
  return make_stmt(std::move(s));
}

StmtPtr make_decl_array(const std::string& name, DType dtype, int64_t extent) {
  IGC_CHECK_GT(extent, 0);
  Stmt s;
  s.kind = StmtKind::kDeclArray;
  s.buffer = name;
  s.dtype = dtype;
  s.extent = extent;
  return make_stmt(std::move(s));
}

StmtPtr make_assign(const std::string& name, ExprPtr value) {
  IGC_CHECK(value);
  Stmt s;
  s.kind = StmtKind::kAssign;
  s.buffer = name;
  s.value = std::move(value);
  return make_stmt(std::move(s));
}

StmtPtr make_barrier() {
  Stmt s;
  s.kind = StmtKind::kBarrier;
  return make_stmt(std::move(s));
}

StmtPtr make_comment(const std::string& text) {
  Stmt s;
  s.kind = StmtKind::kComment;
  s.text = text;
  return make_stmt(std::move(s));
}

namespace {

void accumulate_extents(const StmtPtr& s, int64_t* grid, int64_t* block) {
  if (!s) return;
  if (s->kind == StmtKind::kFor) {
    switch (s->iv.kind) {
      case IterKind::kBlockX:
      case IterKind::kBlockY:
      case IterKind::kBlockZ:
        *grid *= s->iv.extent;
        break;
      case IterKind::kThreadX:
      case IterKind::kThreadY:
      case IterKind::kThreadZ:
        *block *= s->iv.extent;
        break;
      default:
        break;
    }
  }
  for (const StmtPtr& child : s->body) accumulate_extents(child, grid, block);
}

}  // namespace

int64_t LoweredKernel::grid_size() const {
  int64_t grid = 1, block = 1;
  for (const StmtPtr& s : body) accumulate_extents(s, &grid, &block);
  return grid;
}

int64_t LoweredKernel::block_size() const {
  int64_t grid = 1, block = 1;
  for (const StmtPtr& s : body) accumulate_extents(s, &grid, &block);
  return block;
}

}  // namespace igc::ir
