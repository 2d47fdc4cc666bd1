// A non-owning reference to a callable, for callback parameters that are
// called only while the function receiving them runs. Binding a lambda
// never allocates, unlike a `const std::function&` parameter, which
// heap-allocates a capture larger than std::function's inline buffer on
// every call. The referenced callable must outlive the FunctionRef; a
// temporary passed as an argument does.
#ifndef IPS_COMMON_FUNCTION_REF_H_
#define IPS_COMMON_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace ips {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& fn) noexcept
      : callable_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        call_([](void* callable, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(callable))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(callable_, std::forward<Args>(args)...);
  }

 private:
  void* callable_;
  R (*call_)(void*, Args...);
};

}  // namespace ips

#endif  // IPS_COMMON_FUNCTION_REF_H_
