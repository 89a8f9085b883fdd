# mask-walltime.awk masks the wall-clock fields in the output of
# `faction-bench -exp ...`: the "[<exp> finished in ...]" lines, every cell
# of Figure 5's runtime tables, Table I's Runtime(s) column and the design
# ablation's Runtime(s) column. Each masked number becomes "~", and the rows
# of those tables have their runs of spaces and of dashes squeezed to one, so
# that a slower host's wider times cannot shift a column. Every other line,
# every metric included, passes through unchanged: two runs of one build at
# one seed print the same masked text.

# maskcol masks the numbers in the col-th cell (1-based) of a "| a | b |"
# row; a negative col counts from the last cell.
function maskcol(line, col,    f, n, i, out) {
	n = split(line, f, "|")
	if (col < 0)
		col = n - 1 + col
	gsub(/[0-9]+(\.[0-9]+)?/, "~", f[col + 1])
	out = f[1]
	for (i = 2; i <= n; i++)
		out = out "|" f[i]
	return out
}

/^=== / { sec = $2 }
/^\[[a-z0-9]+ finished in / { sub(/in .*\]$/, "in ~s]") }
sec == "fig5" && /^\| / { gsub(/[0-9]+(\.[0-9]+)?/, "~") }
sec == "table1" && /^\| / { $0 = maskcol($0, 2) }
sec == "design" && /^\| / { $0 = maskcol($0, -1) }
(sec == "fig5" || sec == "table1" || sec == "design") && /^\| / {
	gsub(/ +/, " ")
	gsub(/-+/, "-")
}
{ print }
