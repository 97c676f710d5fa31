// magma_lint self-test fixture: an obs::Scope span site (built with an
// index argument) with no "payload" doc comment in reach — the
// span-payload check must flag it. Never compiled; the type below is a
// stand-in for obs::Scope.

namespace obs {
struct Scope {
    explicit Scope(const char*) {}
    Scope(const char*, long long) {}
};
}  // namespace obs

void
undocumentedSpan()
{
    obs::Scope scope("fixture.undocumented", 7);
}

void
undocumentedMultiLineSpan(long long jobs, long long accels)
{
    obs::Scope scope("fixture.multi_line",
                     jobs * accels);
}
