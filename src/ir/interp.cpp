#include "ir/interp.h"

#include <cmath>
#include <limits>
#include <vector>

#include "core/error.h"

namespace igc::ir {
namespace {

/// A scalar runtime value: int64 or double, tagged by the expression dtype.
struct Value {
  bool is_float = false;
  int64_t i = 0;
  double f = 0.0;

  int64_t as_int() const { return is_float ? static_cast<int64_t>(f) : i; }
  double as_float() const { return is_float ? f : static_cast<double>(i); }
};

Value int_value(int64_t v) { return Value{false, v, 0.0}; }
Value float_value(double v) { return Value{true, 0, v}; }

class Interp {
 public:
  explicit Interp(const std::map<std::string, Tensor>& buffers)
      : buffers_(buffers) {}

  void run(const LoweredKernel& k) {
    for (const BufferParam& p : k.params) {
      auto it = buffers_.find(p.name);
      IGC_CHECK(it != buffers_.end()) << "missing buffer " << p.name;
      IGC_CHECK(it->second.dtype() == p.dtype)
          << "dtype mismatch for " << p.name;
      IGC_CHECK_GE(it->second.numel(), p.size) << "buffer too small: " << p.name;
    }
    exec_seq(k.body);
  }

 private:
  Value eval(const ExprPtr& e) {
    switch (e->kind) {
      case ExprKind::kIntImm:
        return int_value(e->int_val);
      case ExprKind::kFloatImm:
        return float_value(e->float_val);
      case ExprKind::kVar: {
        auto it = env_.find(e->name);
        IGC_CHECK(it != env_.end()) << "unbound var " << e->name;
        return it->second;
      }
      case ExprKind::kBinary:
        return eval_binary(e);
      case ExprKind::kSelect: {
        const Value c = eval(e->a);
        return c.as_int() != 0 ? eval(e->b) : eval(e->c);
      }
      case ExprKind::kLoad: {
        const int64_t idx = eval(e->a).as_int();
        if (auto it = arrays_.find(e->name); it != arrays_.end()) {
          return it->second[array_index(it->second, idx, e->name)];
        }
        const Tensor& t = buffer(e->name);
        IGC_CHECK_GE(idx, 0) << "OOB load from " << e->name;
        IGC_CHECK_LT(idx, t.numel()) << "OOB load from " << e->name;
        if (t.dtype() == DType::kFloat32) return float_value(t.data_f32()[idx]);
        if (t.dtype() == DType::kInt32) return int_value(t.data_i32()[idx]);
        IGC_CHECK(false) << "unsupported load dtype";
        return {};
      }
    }
    IGC_CHECK(false) << "bad expr";
    return {};
  }

  Value eval_binary(const ExprPtr& e) {
    const Value a = eval(e->a);
    const Value b = eval(e->b);
    const bool flt = a.is_float || b.is_float;
    auto fa = a.as_float(), fb = b.as_float();
    auto ia = a.as_int(), ib = b.as_int();
    switch (e->op) {
      case BinOp::kAdd:
        return flt ? float_value(fa + fb) : int_value(ia + ib);
      case BinOp::kSub:
        return flt ? float_value(fa - fb) : int_value(ia - ib);
      case BinOp::kMul:
        return flt ? float_value(fa * fb) : int_value(ia * ib);
      case BinOp::kDiv:
        if (flt) return float_value(fa / fb);
        IGC_CHECK_NE(ib, 0);
        return int_value(ia / ib);
      case BinOp::kMod:
        IGC_CHECK(!flt) << "mod on float";
        IGC_CHECK_NE(ib, 0);
        return int_value(ia % ib);
      case BinOp::kMin:
        return flt ? float_value(std::min(fa, fb)) : int_value(std::min(ia, ib));
      case BinOp::kMax:
        return flt ? float_value(std::max(fa, fb)) : int_value(std::max(ia, ib));
      case BinOp::kLT:
        return int_value(flt ? fa < fb : ia < ib);
      case BinOp::kLE:
        return int_value(flt ? fa <= fb : ia <= ib);
      case BinOp::kGT:
        return int_value(flt ? fa > fb : ia > ib);
      case BinOp::kGE:
        return int_value(flt ? fa >= fb : ia >= ib);
      case BinOp::kEQ:
        return int_value(flt ? fa == fb : ia == ib);
      case BinOp::kAnd:
        return int_value((ia != 0) && (ib != 0));
      case BinOp::kOr:
        return int_value((ia != 0) || (ib != 0));
    }
    IGC_CHECK(false) << "bad binop";
    return {};
  }

  void exec_seq(const std::vector<StmtPtr>& stmts) {
    for (const StmtPtr& s : stmts) exec(s);
  }

  void exec(const StmtPtr& s) {
    switch (s->kind) {
      case StmtKind::kFor: {
        // Bound axes are interpreted as full loops: the interpreter plays
        // every block and thread sequentially.
        for (int64_t i = 0; i < s->iv.extent; ++i) {
          env_[s->iv.name] = int_value(i);
          exec_seq(s->body);
        }
        env_.erase(s->iv.name);
        return;
      }
      case StmtKind::kStore: {
        const int64_t idx = eval(s->index).as_int();
        if (auto it = arrays_.find(s->buffer); it != arrays_.end()) {
          Value& slot = it->second[array_index(it->second, idx, s->buffer)];
          const Value v = eval(s->value);
          slot = slot.is_float ? float_value(v.as_float()) : int_value(v.as_int());
          return;
        }
        Tensor& t = mutable_buffer(s->buffer);
        IGC_CHECK_GE(idx, 0) << "OOB store to " << s->buffer;
        IGC_CHECK_LT(idx, t.numel()) << "OOB store to " << s->buffer;
        const Value v = eval(s->value);
        if (t.dtype() == DType::kFloat32) {
          t.data_f32()[idx] = static_cast<float>(v.as_float());
        } else if (t.dtype() == DType::kInt32) {
          t.data_i32()[idx] = static_cast<int32_t>(v.as_int());
        } else {
          IGC_CHECK(false) << "unsupported store dtype";
        }
        return;
      }
      case StmtKind::kIf: {
        if (eval(s->cond).as_int() != 0) exec_seq(s->body);
        return;
      }
      case StmtKind::kDeclLocal:
      case StmtKind::kAssign: {
        const Value v = eval(s->value);
        if (s->kind == StmtKind::kDeclLocal && s->dtype == DType::kFloat32) {
          env_[s->buffer] = float_value(v.as_float());
        } else if (s->kind == StmtKind::kDeclLocal) {
          env_[s->buffer] = int_value(v.as_int());
        } else {
          // Keep the declared type of the local.
          auto it = env_.find(s->buffer);
          IGC_CHECK(it != env_.end()) << "assign to undeclared local " << s->buffer;
          env_[s->buffer] =
              it->second.is_float ? float_value(v.as_float()) : int_value(v.as_int());
        }
        return;
      }
      case StmtKind::kDeclArray: {
        // Each execution of the declaration starts a fresh array. Float
        // elements start as NaN, so a read before the first write poisons
        // the result instead of passing by accident.
        const Value init =
            s->dtype == DType::kFloat32
                ? float_value(std::numeric_limits<double>::quiet_NaN())
                : int_value(0);
        arrays_[s->buffer].assign(static_cast<size_t>(s->extent), init);
        return;
      }
      case StmtKind::kBarrier:
      case StmtKind::kComment:
        return;  // no-ops for sequential interpretation
    }
  }

  static size_t array_index(const std::vector<Value>& a, int64_t idx,
                            const std::string& name) {
    IGC_CHECK_GE(idx, 0) << "OOB access to local array " << name;
    IGC_CHECK_LT(idx, static_cast<int64_t>(a.size()))
        << "OOB access to local array " << name;
    return static_cast<size_t>(idx);
  }

  const Tensor& buffer(const std::string& name) const {
    auto it = buffers_.find(name);
    IGC_CHECK(it != buffers_.end()) << "unknown buffer " << name;
    return it->second;
  }
  Tensor& mutable_buffer(const std::string& name) {
    auto it = buffers_.find(name);
    IGC_CHECK(it != buffers_.end()) << "unknown buffer " << name;
    return const_cast<Tensor&>(it->second);
  }

  const std::map<std::string, Tensor>& buffers_;
  std::map<std::string, Value> env_;
  std::map<std::string, std::vector<Value>> arrays_;  // kDeclArray locals
};

}  // namespace

void interpret(const LoweredKernel& kernel,
               const std::map<std::string, Tensor>& buffers) {
  Interp(buffers).run(kernel);
}

}  // namespace igc::ir
