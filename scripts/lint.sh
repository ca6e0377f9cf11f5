#!/usr/bin/env bash
# lint.sh — the project's single lint entry point; CI runs this file
# verbatim (.github/workflows/ci.yml, job "lint"), so a local run means
# exactly what CI will say.
#
#   scripts/lint.sh                      run xvlint + staticcheck + govulncheck
#   XVLINT_ONLY=1 scripts/lint.sh        skip the external tools
#   XVLINT_SARIF=out.sarif scripts/lint.sh   also write xvlint findings as SARIF
#
# xvlint (cmd/xvlint) is the in-repo invariant checker — determinism and
# cancellation polls; see docs/lint.md. It builds with the standard
# library alone and must be run from inside the module (its loader
# type-checks from source).
#
# staticcheck and govulncheck are version-pinned below. They are not
# vendored: when a binary is absent locally we warn and skip, but CI
# installs both and hard-fails if an install breaks, so the pins cannot
# silently rot.
set -euo pipefail
cd "$(dirname "$0")/.."

STATICCHECK_VERSION="2024.1.1" # last line compatible with go 1.21 sources
GOVULNCHECK_VERSION="v1.1.3"   # pinned so CI runs don't shift under us

echo "== xvlint =="
if [ -n "${XVLINT_SARIF:-}" ]; then
    # One invocation produces both the human text and the SARIF log, so
    # the two can never disagree about what was found.
    go run ./cmd/xvlint -sarif "${XVLINT_SARIF}" ./...
else
    go run ./cmd/xvlint ./...
fi

if [ "${XVLINT_ONLY:-0}" = "1" ]; then
    exit 0
fi

echo "== staticcheck ${STATICCHECK_VERSION} =="
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
elif [ "${CI:-false}" = "true" ]; then
    echo "staticcheck missing in CI (the workflow installs it before calling this script)" >&2
    exit 1
else
    echo "staticcheck not installed; skipping locally." >&2
    echo "install: go install honnef.co/go/tools/cmd/staticcheck@${STATICCHECK_VERSION}" >&2
fi

echo "== govulncheck ${GOVULNCHECK_VERSION} =="
if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./...
elif [ "${CI:-false}" = "true" ]; then
    echo "govulncheck missing in CI (the workflow installs it before calling this script)" >&2
    exit 1
else
    echo "govulncheck not installed; skipping locally." >&2
    echo "install: go install golang.org/x/vuln/cmd/govulncheck@${GOVULNCHECK_VERSION}" >&2
fi
