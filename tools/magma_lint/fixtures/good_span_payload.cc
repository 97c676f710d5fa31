// magma_lint self-test fixture: every obs::Scope span site (built with
// an index argument) documents its payload slots — a same-line comment,
// a comment within three lines above, or a justified allow tag — and
// profile-only scopes need no comment. This file must scan clean.

namespace obs {
struct Scope {
    explicit Scope(const char*) {}
    Scope(const char*, long long) {}
};
}  // namespace obs

void
sameLineComment()
{
    obs::Scope scope("fixture.same_line", 1);  // span payload: i = index
}

void
precedingComment()
{
    // span payload: i = batch size; a/b unused
    obs::Scope scope("fixture.preceding", 2);
}

void
taggedSpan()
{
    // magma-lint: allow(span-payload): timing-only span, no payload
    // slots are filled at this site.
    obs::Scope scope("fixture.tagged", 0);
}

void
profileOnly(const obs::Scope& parent)
{
    obs::Scope scope("fixture.profile_only");
    obs::Scope nested{"fixture.profile_only_braced"};
    (void)parent;
}
