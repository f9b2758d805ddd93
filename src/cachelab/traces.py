"""Trace text I/O: page tokens separated by whitespace, '#' lines as
comments. It imports no other cachelab module, so reading a trace file
compiles nothing else; core takes RESERVED_TOKEN_CHARS from here."""

# characters that policy digests use as syntax; a token holding one would
# render ambiguously (the token "5*" looks like a marked page 5)
RESERVED_TOKEN_CHARS = "*,[]"


class TraceParseError(ValueError):
    pass


def parse_trace(data):
    """Tokens of a trace file: separated by any Unicode whitespace (every
    line boundary is whitespace), '#' lines are comments, blank lines are
    skipped. Accepts bytes or str, and drops one leading byte order mark;
    invalid UTF-8 raises TraceParseError naming the byte offset, and a
    token containing one of RESERVED_TOKEN_CHARS raises it naming the
    token and its line."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceParseError(
                "trace is not valid UTF-8 at byte offset %d" % exc.start
            ) from exc
    else:
        text = data
    # decoded as plain utf-8, not utf-8-sig, so error offsets count the mark
    text = text.removeprefix("\ufeff")
    # comments may hold reserved characters; scan tokens only if the text does
    check_reserved = any(c in text for c in RESERVED_TOKEN_CHARS)
    if not check_reserved and "#" not in text:
        # no comment and no error to place on a line: every line boundary
        # is whitespace, so one split gives the line walk's tokens
        return text.split()
    tokens = []
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        words = stripped.split()
        if check_reserved:
            for word in words:
                if any(c in word for c in RESERVED_TOKEN_CHARS):
                    raise TraceParseError(
                        "trace token %r on line %d contains one of the reserved characters %s"
                        % (word, number, RESERVED_TOKEN_CHARS)
                    )
        tokens.extend(words)
    return tokens


def format_trace(trace):
    """Render a trace in the text format parse_trace reads back."""
    return "\n".join(str(p) for p in trace) + ("\n" if len(trace) else "")
