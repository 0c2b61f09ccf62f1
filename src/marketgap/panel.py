"""Price-panel ingestion, log returns, and rolling windows.

Panels hold aligned daily close prices as a dates x tickers float matrix with
NaN marking missing observations. All operations are pure; panels are never
mutated after construction.
"""
from __future__ import annotations

import contextlib
import csv
import io
import logging
import math
import os
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import DataError, ParseError, check_choice, check_int

LAYOUTS = ("long", "wide")
LONG_HEADER = ("date", "ticker", "close")
META_HEADER = ("ticker", "sector", "market")
DEFAULT_SECTOR = "UNKNOWN"
DEFAULT_MARKET = "ALL"
# The long-layout reader takes the file in blocks of this many bytes. A block's
# field strings leave freed heap behind that later arrays reuse only in part, so
# the block size sets a floor under a command's later peak: against 256 KiB,
# 64 KiB blocks lowered `gap --by-sector`'s peak RSS from 40.0 to 39.2 MB on
# the three-phase preset and from 63.4 to 61.4 MB on the 1500 x 500 panel.
_BLOCK_BYTES = 1 << 16
# A panel of at least 2 x this many cells is written in one part per CPU, each
# part at least this many cells (see `write_price_panel`). Formatting takes about
# 0.8 us a cell, so a part this size (about 0.1 s) outweighs a worker's start-up:
# on a 2-vCPU VM the 1500 x 500 panel (750k cells) took 0.57-0.68 s to write in
# one part and 0.34-0.40 s in two. Every preset (at most about 50k cells) is one
# part, and so runs no fork.
_WRITE_PART_CELLS = 131_072

logger = logging.getLogger(__name__)


# ---------- Domain types ----------

@dataclass(eq=False)
class PricePanel:
    """Aligned daily close prices: rows are dates, columns are tickers (NaN = missing)."""

    dates: list[date]
    tickers: list[str]
    close: np.ndarray  # shape (n_dates, n_tickers), float64
    sector_of: dict[str, str]
    market_of: dict[str, str]

    def __post_init__(self):
        self.close = np.asarray(self.close, dtype=np.float64)
        if self.close.shape != (len(self.dates), len(self.tickers)):
            raise DataError(
                f"price matrix shape {self.close.shape} does not match "
                f"{len(self.dates)} dates x {len(self.tickers)} tickers"
            )
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise DataError("panel dates must be strictly increasing")
        # NaN is a missing price; fmin and fmax skip it, and copy nothing.
        if self.close.size and (np.fmin.reduce(self.close, axis=None) <= 0.0
                                or np.fmax.reduce(self.close, axis=None) == np.inf):
            raise DataError("panel contains a non-positive or infinite price")
        for t in self.tickers:
            if t not in self.sector_of or t not in self.market_of:
                raise DataError(f"ticker {t!r} has no sector/market label")

    @property
    def shape(self) -> tuple[int, int]:
        return self.close.shape

    def markets(self) -> list[str]:
        return sorted({self.market_of[t] for t in self.tickers})

    def sectors(self) -> list[str]:
        return sorted({self.sector_of[t] for t in self.tickers})

    def market_panel(self, market: str) -> "PricePanel":
        """Sub-panel for one market on its own trading calendar: the market's
        tickers in panel order, on the dates where any of them has a price.

        A market that keeps every column and every date shares this panel's
        matrix; any other market gets a copy.
        """
        cols = [j for j, t in enumerate(self.tickers) if self.market_of[t] == market]
        if not cols:
            raise DataError(f"no tickers labeled with market {market!r}")
        members = [self.tickers[j] for j in cols]
        whole = len(cols) == len(self.tickers)
        keep = np.isfinite(self.close if whole else self.close[:, cols]).any(axis=1)
        return PricePanel(
            dates=[d for d, k in zip(self.dates, keep) if k],
            tickers=members,
            close=self.close if whole and keep.all() else self.close[np.ix_(keep, cols)],
            sector_of={t: self.sector_of[t] for t in members},
            market_of={t: market for t in members},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PricePanel):
            return NotImplemented
        return (
            self.dates == other.dates
            and self.tickers == other.tickers
            and np.array_equal(self.close, other.close, equal_nan=True)
            and self.sector_of == other.sector_of
            and self.market_of == other.market_of
        )


@dataclass(eq=False)
class ReturnPanel:
    """Daily log returns; entry NaN wherever either source price is missing."""

    dates: list[date]  # length = source dates - 1
    tickers: list[str]
    values: np.ndarray  # shape (n_dates, n_tickers)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.tickers)


# ---------- File I/O ----------

def open_input(path):
    """Open a UTF-8 input file; a missing or unreadable file is a DataError naming it.

    Newlines pass through untranslated, as the csv module expects; JSON reads
    the same either way.
    """
    try:
        return open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"{path}: cannot open: {exc.strerror}") from exc


def open_output(path, mode: str, **kwargs):
    """Open an output file; one that cannot be opened is a DataError naming it."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise DataError(f"{path}: cannot open: {exc.strerror}") from exc


def _first_undecodable_line(path) -> int | None:
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return n
    return None


def _open_rows(path):
    """The csv rows of a UTF-8 file; what the csv module rejects, bytes that are
    not UTF-8 and a leading byte-order mark raise a ParseError naming the file and line."""
    with open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            # Excel's "CSV UTF-8" starts the file, and so its header, with a BOM.
            if fh.read(1) == "\ufeff":
                raise ParseError("the header starts with a UTF-8 byte-order mark (U+FEFF); "
                                 "save the file as UTF-8 without one", path, 1)
            fh.seek(0)
            yield from reader
        except csv.Error as exc:
            raise ParseError(str(exc), path, reader.line_num) from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})", path,
                             _first_undecodable_line(path)) from None


def _parse_date(text: str, path, line: int) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise ParseError(f"invalid ISO date {text!r}", path, line) from None


def _parse_price(text: str, path, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"invalid price {text!r}", path, line) from None
    if not math.isfinite(value) or value <= 0.0:
        raise DataError(f"{path}:{line}: non-positive or non-finite price {text!r}")
    return value


def load_metadata(path) -> dict[str, tuple[str, str]]:
    """Read a `ticker,sector,market` file into {ticker: (sector, market)}."""
    rows = _open_rows(path)
    header = next(rows, None)
    if header is None or tuple(h.strip().lower() for h in header) != META_HEADER:
        raise ParseError(f"expected header {','.join(META_HEADER)}", path, 1)
    out: dict[str, tuple[str, str]] = {}
    for n, row in enumerate(rows, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", path, n)
        ticker, sector, market = (c.strip() for c in row)
        if not ticker or not sector or not market:
            raise ParseError("empty ticker/sector/market field", path, n)
        if ticker in out and out[ticker] != (sector, market):
            raise DataError(f"{path}:{n}: conflicting metadata for ticker {ticker!r}")
        out[ticker] = (sector, market)
    return out


def _load_cells(path, layout: str) -> tuple[list[date], list[str], np.ndarray]:
    """The dates, tickers and close matrix of a long or wide file, read with the csv module.

    A blank line is skipped, and so is an empty wide cell (missing). A repeated
    key must repeat its price. Prices fill a grid as `_read_long_blocks` fills
    its own: a date or ticker gets a code when it first stores a price, so an
    all-empty wide line or column stays absent.
    """
    rows = _open_rows(path)
    header = [h.strip() for h in next(rows, None) or ()]
    if layout == "long":
        if tuple(h.lower() for h in header) != LONG_HEADER:
            raise ParseError(f"expected header {','.join(LONG_HEADER)}", path, 1)
    else:
        if not header or header[0].lower() != "date":
            raise ParseError("expected header starting with 'date'", path, 1)
        if len(header) == 1 or not all(header[1:]):
            raise ParseError("empty ticker column name", path, 1)
        if len(set(header[1:])) != len(header) - 1:
            raise DataError(f"{path}:1: duplicate ticker columns")
    date_codes: dict[date, int] = {}
    ticker_codes: dict[str, int] = {}
    grid = np.empty((0, 0))
    for n, row in enumerate(rows, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", path, n)
        d = _parse_date(row[0], path, n)
        if layout == "long":
            ticker = row[1].strip()
            if not ticker:
                raise ParseError("empty ticker", path, n)
            price_texts = ((ticker, row[2]),)
        else:
            price_texts = ((t, cell) for t, cell in zip(header[1:], row[1:]) if cell.strip())
        for ticker, text in price_texts:
            price = _parse_price(text, path, n)
            r = date_codes.setdefault(d, len(date_codes))
            c = ticker_codes.setdefault(ticker, len(ticker_codes))
            grid = _grown(grid, len(date_codes), len(ticker_codes))
            kept = grid.item(r, c)  # NaN while the cell holds no price
            if kept != price and not math.isnan(kept):
                raise DataError(f"{path}:{n}: conflicting duplicate for "
                                f"({d.isoformat()}, {ticker}): {kept!r} vs {price!r}")
            grid[r, c] = price
    return _sorted_panel(date_codes, ticker_codes, grid)


class _Declined(Exception):
    """The block reader met something it leaves to the csv path; the text says what."""


class _DateCodes(dict):
    """Date text -> code of its date in `dates`, first seen first; a new text is parsed
    on its first lookup, and one that is no date declines."""

    def __init__(self):
        super().__init__()
        self.dates: dict[date, int] = {}

    def __missing__(self, text: str) -> int:
        try:
            d = _parse_date(text, None, None)
        except ParseError:
            raise _Declined(f"the date {text!r}") from None
        return self.setdefault(text, self.dates.setdefault(d, len(self.dates)))


class _TickerCodes(dict):
    """Ticker -> code, first seen first; an empty or padded ticker declines on its first lookup."""

    def __missing__(self, ticker: str) -> int:
        if not ticker or ticker != ticker.strip():
            raise _Declined(f"the empty or padded ticker {ticker!r}")
        return self.setdefault(ticker, len(self))


def _block_rows(chunk: bytes, date_codes: _DateCodes, ticker_codes: _TickerCodes):
    """(date codes, ticker codes, prices) of whole lines, each `date,ticker,close`;
    blank and whitespace-only lines are skipped. The code tables grow by the block's
    new keys.
    """
    if b'"' in chunk:
        raise _Declined("a quote character")
    if b"\0" in chunk:
        raise _Declined("a NUL character")
    raw = np.frombuffer(chunk, dtype=np.uint8)
    # A CRLF line keeps its \r at the end of the price, which `float` ignores.
    if b"\r" in chunk and (raw[np.flatnonzero(raw == ord("\r")) + 1] != ord("\n")).any():
        raise _Declined("a carriage return outside a CRLF line end")
    ends, commas = np.flatnonzero(raw == ord("\n")), np.flatnonzero(raw == ord(","))
    if commas.size < 2 * ends.size:
        # Fewer commas than 3 fields a line take: drop the lines that the csv
        # path skips, those without a comma that `bytes.strip` empties. Any
        # other line without a comma (one of Unicode whitespace, say) stays
        # and is declined below.
        chunk = b"".join([line for line in chunk.splitlines(keepends=True)
                          if b"," in line or line.strip()])
        raw = np.frombuffer(chunk, dtype=np.uint8)
        ends, commas = np.flatnonzero(raw == ord("\n")), np.flatnonzero(raw == ord(","))
    if not chunk:
        return np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0)
    starts = np.r_[-1, ends[:-1]]  # the newline before each line
    # With 2 commas per line in all, each line holds its own two exactly when
    # comma 2k follows line k's start and comma 2k + 1 precedes its end.
    if (commas.size != 2 * ends.size or (commas[0::2] < starts).any()
            or (commas[1::2] > ends).any()):
        raise _Declined("a line without exactly 3 fields")
    if (ends - starts).max() > csv.field_size_limit():
        raise _Declined("a line longer than the csv field size limit")
    try:
        fields = chunk.decode("utf-8").replace("\n", ",").split(",")
    except UnicodeDecodeError:
        raise _Declined("bytes that are not UTF-8") from None
    date_texts, tickers, price_texts = fields[0:-1:3], fields[1::3], fields[2::3]
    rows = np.fromiter(map(date_codes.__getitem__, date_texts), np.int32, len(date_texts))
    cols = np.fromiter(map(ticker_codes.__getitem__, tickers), np.int32, len(tickers))
    try:  # each text converts as `float` converts it
        prices = np.array(price_texts, dtype=np.float64)
    except ValueError:
        raise _Declined("a price that is not a number") from None
    if not ((prices > 0.0) & (prices < math.inf)).all():
        raise _Declined("a non-finite or non-positive price")
    return rows, cols, prices


def _sorted_panel(date_codes: dict[date, int], ticker_codes: dict[str, int],
                  grid: np.ndarray) -> tuple[list[date], list[str], np.ndarray]:
    """(dates, tickers, close) of a grid indexed by first-seen codes: the dates
    and tickers sorted, and one gather of the grid's cells into that order."""
    dates, tickers = sorted(date_codes), sorted(ticker_codes)
    return dates, tickers, grid[np.ix_([date_codes[d] for d in dates],
                                       [ticker_codes[t] for t in tickers])]


def _grown(grid: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """`grid`, or a NaN-padded copy of it with at least n_rows x n_cols cells;
    an axis that must grow at least doubles, and the other keeps its size."""
    rows, cols = grid.shape
    if n_rows <= rows and n_cols <= cols:
        return grid
    out = np.full((rows if n_rows <= rows else max(n_rows, 2 * rows),
                   cols if n_cols <= cols else max(n_cols, 2 * cols)), np.nan)
    out[:rows, :cols] = grid
    return out


def _line_blocks(fh):
    """The bytes from the file's position to its end in blocks of whole lines; a
    last line without a line end gets one.

    A line longer than the csv field size limit is declined as soon as it is
    seen, so a file without LF (one ending its lines in lone CRs) is never
    buffered whole.
    """
    rest = b""
    while block := fh.read(_BLOCK_BYTES):
        chunk = rest + block
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield chunk[:cut]
        rest = chunk[cut:]
        if len(rest) > csv.field_size_limit():
            raise _Declined("a line longer than the csv field size limit")
    if rest:
        yield rest + b"\n"


def _read_part(fh) -> tuple[dict[date, int], _TickerCodes, np.ndarray]:
    """(date codes, ticker codes, grid) of the lines from the file's position to its
    end: each block scattered as it is read into one NaN grid indexed by codes in
    first-seen order.

    The grid grows geometrically on the axis whose codes outgrew it, so it may
    hold NaN rows and columns past the codes. The repeat rule is `_load_cells`'
    own: a key that an earlier block left holding another price declines, and
    after a block's scatter every price of the block must equal its cell, so a
    repeat within the block that differs declines and an equal repeat loads.
    """
    date_codes, ticker_codes = _DateCodes(), _TickerCodes()
    grid = np.empty((0, 0))
    for chunk in _line_blocks(fh):
        rows, cols, prices = _block_rows(chunk, date_codes, ticker_codes)
        grid = _grown(grid, len(date_codes.dates), len(ticker_codes))
        held = grid[rows, cols]  # NaN for a key no earlier block holds
        grid[rows, cols] = prices
        # A key from an earlier block must repeat its price. A key repeated
        # within the block keeps one of its prices; another price of it
        # differs from the kept one exactly when the repeat conflicts.
        if not ((np.isnan(held) | (held == prices)) & (grid[rows, cols] == prices)).all():
            raise _Declined("conflicting prices for a repeated (date, ticker) key")
    return date_codes.dates, ticker_codes, grid


def _cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot tell or cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class _ForkFailed(Exception):
    """`_forked` could not start a worker; no part has run. The text is the OS reason."""


class _WorkerFailed(Exception):
    """A forked worker ended before it sent its whole result."""


def _forked(own, jobs, take):
    """`own()` run here while each of `jobs` runs in a forked worker, then each worker's
    result folded into own's in job order: `result = take(result, pipe)`, with `pipe`
    the read end of the worker's pipe as a binary file. Returns the folded result.

    A worker calls its job with the write end of its pipe, as a binary file, and
    ends with `os._exit`: status 0 once the job has returned, 1 if it raised. So
    a worker runs no exit handler and flushes no file it inherited; its job must
    run no BLAS and write no log. A worker that ends with another status than 0
    raises `_WorkerFailed` after its `take`. Every worker is started before
    `own()` runs; a pipe or fork that fails raises `_ForkFailed` before it does.
    Every worker is reaped before this returns or raises, and killed first if it
    may still run.
    """
    workers = []  # (pid, its pipe's read end) of each worker not yet reaped, in job order
    try:
        for job in jobs:
            try:
                r, w = os.pipe()
            except OSError as exc:
                raise _ForkFailed(exc.strerror) from None
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(r)
                os.close(w)
                raise _ForkFailed(exc.strerror) from None
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    with open(w, "wb") as pipe:
                        job(pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            workers.append((pid, open(r, "rb")))
        result = own()
        while workers:
            pid, pipe = workers[0]
            with pipe:
                result = take(result, pipe)
            status = os.waitpid(pid, 0)[1]
            workers.pop(0)
            if status:
                raise _WorkerFailed
    finally:
        if workers:  # a failed run; `signal` costs 1 ms of start-up, so it loads here
            import signal
        for pid, pipe in workers:
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return result


def _read_long_blocks(path) -> tuple[list[date], list[str], np.ndarray]:
    """The long layout read in blocks; raises _Declined, never a package error.

    It takes plain files only: the long header, then `date,ticker,close`
    lines with LF or CRLF ends, no quoting, unpadded tickers, finite positive
    prices and no conflicting repeat of a (date, ticker) key. Blank and
    whitespace-only lines are skipped. Dates go through `_parse_date` once per
    distinct text and prices through `float`, so a file read here gives what
    `_load_cells` gives.

    The blocks fill one grid (`_read_part`), and one permutation puts it in
    sorted order at the end.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise _Declined(f"cannot open: {exc.strerror}") from None
    with fh:
        # A header past the limit reads as limit + 2 bytes without its line end.
        line = fh.readline(csv.field_size_limit() + 2)
        header = line[:-1] if line.endswith(b"\n") else line
        header = header[:-1] if header.endswith(b"\r") else header
        names = header.decode("utf-8", "replace").split(",")
        if (b'"' in header or b"\r" in header or len(header) > csv.field_size_limit()
                or tuple(h.strip().lower() for h in names) != LONG_HEADER):
            raise _Declined("not the plain long header")
        return _sorted_panel(*_read_part(fh))


def load_price_panel(path, layout: str = "long", metadata=None) -> PricePanel:
    """Load a close-price file (long or wide layout) into a PricePanel.

    Dates become the sorted union of all observed dates; tickers are
    deduplicated and sorted; anything unobserved stays NaN. When a metadata
    path is given every panel ticker must appear in it; otherwise all tickers
    get placeholder sector/market labels.

    A plain long file is read in blocks (see `_read_long_blocks`). Any other
    long file, and any file with a fault, goes through the csv parser, which
    accepts the same files and raises every error.
    """
    check_choice("layout", layout, LAYOUTS)
    if layout == "long":
        try:
            dates, tickers, close = _read_long_blocks(path)
        except _Declined as exc:
            logger.debug("%s: block reader declined (%s); reading with the csv parser", path, exc)
            dates, tickers, close = _load_cells(path, layout)
    else:
        dates, tickers, close = _load_cells(path, layout)
    if not dates:
        raise DataError(f"{path}: no price observations")

    if metadata is not None:
        meta = load_metadata(metadata)
        missing = [t for t in tickers if t not in meta]
        if missing:
            raise DataError(f"metadata lacks labels for tickers: {', '.join(missing[:5])}")
        sector_of = {t: meta[t][0] for t in tickers}
        market_of = {t: meta[t][1] for t in tickers}
    else:
        sector_of = {t: DEFAULT_SECTOR for t in tickers}
        market_of = {t: DEFAULT_MARKET for t in tickers}
    return PricePanel(dates, tickers, close, sector_of, market_of)


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it between two other fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow(("", text, ""))
    return buf.getvalue()[1:-3]


def _price_rows(dates, close: np.ndarray, tickers: list[str]):
    """The long layout's lines of each date and its row of `close`, one bytes object a
    date: `date,ticker,repr(price)` and `\r\n` for each finite price, tickers as
    `_csv_field` quotes them, each with its comma."""
    for d, row in zip(dates, close):
        head = d.isoformat() + ","
        yield "".join([f"{head}{t}{v!r}\r\n" for t, v, keep in
                       zip(tickers, row.tolist(), np.isfinite(row).tolist()) if keep]
                      ).encode("utf-8")


def write_price_panel(panel: PricePanel, path) -> None:
    """Write the panel in the long layout; round-trips through load_price_panel.

    The bytes are those of csv.writer: each ticker quoted as it quotes it,
    each price as `repr`, `\r\n` line ends and no row for a missing price.

    A panel of at least 2 x `_WRITE_PART_CELLS` cells is cut into contiguous
    date ranges, one per CPU (at most one a `_WRITE_PART_CELLS`), and each range
    but the first is formatted in a forked worker (`_forked`) that pipes back its
    bytes. This process writes the header and the first range row by row, then
    copies each worker's bytes in date order, a block at a time, so the file is
    the one-part write's, byte for byte. A smaller panel, and one on a system
    without fork, is one part; so is any panel when a fork fails.
    """
    tickers = [_csv_field(t) + "," for t in panel.tickers]
    n = len(panel.dates)
    parts = max(1, min(_cpus(), panel.close.size // _WRITE_PART_CELLS, n))
    cuts = [n * k // parts for k in range(parts + 1)]

    def rows(lo: int, hi: int):
        return _price_rows(panel.dates[lo:hi], panel.close[lo:hi], tickers)

    def send(lo: int, hi: int):
        return lambda pipe: pipe.write(b"".join(rows(lo, hi)))

    with open_output(path, "wb") as fh:
        def take(_, pipe):
            while block := pipe.read(_BLOCK_BYTES):
                fh.write(block)

        fh.write((",".join(LONG_HEADER) + "\r\n").encode("utf-8"))
        try:
            _forked(lambda: fh.writelines(rows(0, cuts[1])),
                    [send(lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])], take)
        except _ForkFailed:
            parts = 1
            fh.writelines(rows(0, n))
        except _WorkerFailed:
            raise DataError(f"{path}: cannot write: a worker process failed") from None
    logger.debug("%s: price writer in %d part(s)", path, parts)


def write_metadata(panel: PricePanel, path) -> None:
    with open_output(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(META_HEADER)
        for t in panel.tickers:
            writer.writerow([t, panel.sector_of[t], panel.market_of[t]])


def merge_panels(panels: list[PricePanel]) -> PricePanel:
    """Column-wise merge of panels sharing one date axis (tickers must be disjoint)."""
    if not panels:
        raise DataError("no panels to merge")
    dates = panels[0].dates
    for p in panels[1:]:
        if p.dates != dates:
            raise DataError("merge_panels requires identical date axes")
    tickers: list[str] = []
    for p in panels:
        overlap = set(tickers) & set(p.tickers)
        if overlap:
            raise DataError(f"merge_panels got duplicate tickers: {sorted(overlap)[:5]}")
        tickers.extend(p.tickers)
    close = np.hstack([p.close for p in panels])
    sector_of = {t: s for p in panels for t, s in p.sector_of.items()}
    market_of = {t: m for p in panels for t, m in p.market_of.items()}
    return PricePanel(dates, tickers, close, sector_of, market_of)


# ---------- Core operations ----------

def log_returns(panel: PricePanel) -> ReturnPanel:
    """Daily log returns ln(P_t / P_{t-1}), logged in place; NaN where either price is missing."""
    if len(panel.dates) < 2:
        raise DataError("log returns need at least 2 dates")
    values = panel.close[1:] / panel.close[:-1]
    with np.errstate(invalid="ignore"):
        np.log(values, out=values)
    return ReturnPanel(dates=panel.dates[1:], tickers=list(panel.tickers), values=values)


def check_window(length: int, step: int = 1) -> None:
    """The rolling-window rules: a window holds >= 3 return rows, and the step is >= 1."""
    check_int("window length", length, 3)
    check_int("window step", step, 1)


def window_ends(n_dates: int, length: int, step: int = 1) -> np.ndarray:
    """The rolling-window grid: 1-based end rows length, length + step, ... <= n_dates.

    Window k covers rows [ends[k] - length, ends[k]); no window fits (the
    result is empty) when n_dates < length.
    """
    check_window(length, step)
    return np.arange(length, n_dates + 1, step)
