#!/bin/sh
# Lines of non-test Go outside benchmark/, classified blank / comment / code,
# per top-level package and in total — so a line target can be stated for
# code and for comments separately (doc comments are half of most deltas).
#
# A line is a comment if it starts with // or lies inside a /* */ block;
# code with a trailing comment is code. internal/kvtest is skipped with the
# _test.go files: it is the core.KV conformance suite, test code that lives
# in a package of its own only so that several test packages can import it.
#
# Usage: scripts/loc.sh [repo root]   (default: the current directory)
cd "${1:-.}" || exit 1
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './internal/kvtest/*' ! -path './.git/*' |
	sort |
	awk '
	{
		file = $0
		pkg = file
		sub(/^\.\//, "", pkg)
		if (pkg !~ /\//) pkg = "(root)"
		else { split(pkg, p, "/"); pkg = p[1] "/" p[2] }
		inblock = 0
		while ((getline line < file) > 0) {
			sub(/^[ \t]+/, "", line)
			if (inblock) {
				comment[pkg]++
				if (line ~ /\*\//) inblock = 0
			} else if (line == "") blank[pkg]++
			else if (line ~ /^\/\//) comment[pkg]++
			else if (line ~ /^\/\*/) {
				comment[pkg]++
				if (line !~ /\*\//) inblock = 1
			} else code[pkg]++
		}
		close(file)
		seen[pkg] = 1
	}
	END {
		n = 0
		for (k in seen) names[++n] = k
		for (i = 2; i <= n; i++) {
			v = names[i]
			for (j = i - 1; j >= 1 && names[j] > v; j--) names[j + 1] = names[j]
			names[j + 1] = v
		}
		printf "%-22s %7s %7s %7s %7s\n", "package", "code", "comment", "blank", "lines"
		for (i = 1; i <= n; i++) {
			k = names[i]
			printf "%-22s %7d %7d %7d %7d\n", k, code[k], comment[k], blank[k], code[k] + comment[k] + blank[k]
			tc += code[k]; tm += comment[k]; tb += blank[k]
		}
		printf "%-22s %7d %7d %7d %7d\n", "total", tc, tm, tb, tc + tm + tb
	}'
