"""Price-panel ingestion, log returns, and rolling windows.

Panels hold aligned daily close prices as a dates x tickers float matrix with
NaN marking missing observations. All operations are pure; panels are never
mutated after construction, so they are safe to share across workers.
"""
from __future__ import annotations

import csv
import io
import itertools
import logging
import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import DataError, ParseError, UsageError

LONG_HEADER = ("date", "ticker", "close")
META_HEADER = ("ticker", "sector", "market")
DEFAULT_SECTOR = "UNKNOWN"
DEFAULT_MARKET = "ALL"
# The long-layout reader takes the file in blocks of this many bytes.
_BLOCK_BYTES = 1 << 20

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
        present = self.close[np.isfinite(self.close)]
        if present.size and present.min() <= 0.0:
            raise DataError("panel contains a non-positive price")
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

    def restrict(self, tickers: list[str]) -> "PricePanel":
        """Column subset (given order), dropping dates with no data left."""
        column = {t: j for j, t in enumerate(self.tickers)}
        close = self.close[:, [column[t] for t in tickers]]
        keep = np.isfinite(close).any(axis=1)
        return PricePanel(
            dates=[d for d, k in zip(self.dates, keep) if k],
            tickers=list(tickers),
            close=close[keep],
            sector_of={t: self.sector_of[t] for t in tickers},
            market_of={t: self.market_of[t] for t in tickers},
        )

    def market_panel(self, market: str) -> "PricePanel":
        """Sub-panel for one market on that market's own trading calendar."""
        members = [t for t in self.tickers if self.market_of[t] == market]
        if not members:
            raise DataError(f"no tickers labeled with market {market!r}")
        return self.restrict(members)

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


def _first_undecodable_line(path) -> int | None:
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return n
    return None


def _open_rows(path):
    """The csv rows of a UTF-8 file; what the csv module rejects, and bytes
    that are not UTF-8, raise a ParseError naming the file and line."""
    with open_input(path) as fh:
        reader = csv.reader(fh)
        try:
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
        raise DataError(f"{path}:{line}: non-positive price {text!r}")
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


def _load_long(path) -> dict[tuple[date, str], float]:
    rows = _open_rows(path)
    header = next(rows, None)
    if header is None or tuple(h.strip().lower() for h in header) != LONG_HEADER:
        raise ParseError(f"expected header {','.join(LONG_HEADER)}", path, 1)
    cells: dict[tuple[date, str], float] = {}
    for n, row in enumerate(rows, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", path, n)
        d = _parse_date(row[0], path, n)
        ticker = row[1].strip()
        if not ticker:
            raise ParseError("empty ticker", path, n)
        price = _parse_price(row[2], path, n)
        key = (d, ticker)
        if key in cells and cells[key] != price:
            raise DataError(
                f"{path}:{n}: conflicting duplicate for ({d.isoformat()}, {ticker}): "
                f"{cells[key]!r} vs {price!r}"
            )
        cells[key] = price
    return cells


def _load_wide(path) -> dict[tuple[date, str], float]:
    rows = _open_rows(path)
    header = next(rows, None)
    if header is None or not header or header[0].strip().lower() != "date":
        raise ParseError("expected header starting with 'date'", path, 1)
    tickers = [h.strip() for h in header[1:]]
    if not tickers or any(not t for t in tickers):
        raise ParseError("empty ticker column name", path, 1)
    if len(set(tickers)) != len(tickers):
        raise DataError(f"{path}:1: duplicate ticker columns")
    cells: dict[tuple[date, str], float] = {}
    for n, row in enumerate(rows, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(tickers) + 1:
            raise ParseError(f"expected {len(tickers) + 1} fields, got {len(row)}", path, n)
        d = _parse_date(row[0], path, n)
        for ticker, cell in zip(tickers, row[1:]):
            if cell.strip() == "":
                continue  # empty cell = missing
            price = _parse_price(cell, path, n)
            key = (d, ticker)
            if key in cells and cells[key] != price:
                raise DataError(
                    f"{path}:{n}: conflicting duplicate for ({d.isoformat()}, {ticker})"
                )
            cells[key] = price
    return cells


class _Declined(Exception):
    """The block reader met something it leaves to the csv path; the text says what."""


def _block_rows(chunk: bytes, text_codes: dict[str, int], date_codes: dict[date, int],
                ticker_codes: dict[str, int]):
    """(date codes, ticker codes, prices) of whole lines, each `date,ticker,close`.

    `text_codes` maps each date text seen so far to the code of its date in
    `date_codes`, and `ticker_codes` each ticker to its code. The dicts grow
    by the block's new keys.
    """
    if b'"' in chunk:
        raise _Declined("a quote character")
    if b"\0" in chunk:
        raise _Declined("a NUL character")
    # A CRLF line keeps its \r at the end of the price, which `float` ignores.
    if b"\r" in chunk and chunk.count(b"\r") != chunk.count(b"\r\n"):
        raise _Declined("a carriage return outside a CRLF line end")
    raw = np.frombuffer(chunk, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    starts = np.r_[-1, ends[:-1]]  # the newline before each line
    commas = np.flatnonzero(raw == ord(","))
    # With 2 commas per line in all, each line holds its own two exactly when
    # comma 2k follows line k's start and comma 2k + 1 precedes its end. A
    # blank line has none.
    if (commas.size != 2 * ends.size or (commas[0::2] < starts).any()
            or (commas[1::2] > ends).any()):
        raise _Declined("a blank line or a line without exactly 3 fields")
    if (ends - starts).max() > csv.field_size_limit():
        raise _Declined("a line longer than the csv field size limit")
    try:
        fields = chunk.decode("utf-8").replace("\n", ",").split(",")
    except UnicodeDecodeError:
        raise _Declined("bytes that are not UTF-8") from None
    date_texts, tickers, price_texts = fields[0:-1:3], fields[1::3], fields[2::3]

    for text in set(date_texts).difference(text_codes):
        try:
            d = _parse_date(text, None, None)
        except ParseError:
            raise _Declined(f"the date {text!r}") from None
        text_codes[text] = date_codes.setdefault(d, len(date_codes))
    for ticker in set(tickers).difference(ticker_codes):
        if not ticker or ticker != ticker.strip():
            raise _Declined(f"the empty or padded ticker {ticker!r}")
        ticker_codes[ticker] = len(ticker_codes)
    try:
        prices = np.fromiter(map(float, price_texts), np.float64, len(price_texts))
    except ValueError:
        raise _Declined("a price that is not a number") from None
    if not ((prices > 0.0) & (prices < math.inf)).all():
        raise _Declined("a non-finite or non-positive price")
    return (np.fromiter(map(text_codes.__getitem__, date_texts), np.int32, len(date_texts)),
            np.fromiter(map(ticker_codes.__getitem__, tickers), np.int32, len(tickers)),
            prices)


def _sorted_keys(codes: dict) -> tuple[list, np.ndarray]:
    """The keys of `codes` sorted, and the sorted position of each code."""
    ordered = sorted(codes)
    position = np.empty(len(ordered), dtype=np.intp)
    position[[codes[k] for k in ordered]] = np.arange(len(ordered))
    return ordered, position


def _line_blocks(fh):
    """The file's bytes in blocks of whole lines; a last line without a line end gets one.

    A line longer than the csv field size limit is declined as soon as it is
    seen, so a file without LF (one ending its lines in lone CRs) is never
    buffered whole.
    """
    rest = b""
    for block in iter(lambda: fh.read(_BLOCK_BYTES), b""):
        chunk = rest + block
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield chunk[:cut]
        rest = chunk[cut:]
        if len(rest) > csv.field_size_limit():
            raise _Declined("a line longer than the csv field size limit")
    if rest:
        yield rest + b"\n"


def _read_long_blocks(path) -> tuple[list[date], list[str], np.ndarray]:
    """The long layout read in blocks; raises _Declined, never a package error.

    It takes plain files only: the long header, then `date,ticker,close`
    lines with LF or CRLF ends, no quoting, no blank line, unpadded tickers,
    finite positive prices and no conflicting repeat of a (date, ticker) key
    (an equal repeat loads, as in `_load_long`). Dates go through
    `_parse_date` once per distinct text and prices through `float`, so a
    file read here gives what `_load_long` gives.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise _Declined(f"cannot open: {exc.strerror}") from None
    text_codes: dict[str, int] = {}
    date_codes: dict[date, int] = {}
    ticker_codes: dict[str, int] = {}
    with fh:
        chunks = _line_blocks(fh)
        header, _, first = next(chunks, b"").partition(b"\n")
        header = header[:-1] if header.endswith(b"\r") else header
        names = header.decode("utf-8", "replace").split(",")
        if (b'"' in header or b"\r" in header or len(header) > csv.field_size_limit()
                or tuple(h.strip().lower() for h in names) != LONG_HEADER):
            raise _Declined("not the plain long header")
        blocks = [_block_rows(chunk, text_codes, date_codes, ticker_codes)
                  for chunk in itertools.chain([first], chunks) if chunk]
    if not blocks:
        return [], [], np.empty((0, 0))

    dates, date_pos = _sorted_keys(date_codes)
    tickers, ticker_pos = _sorted_keys(ticker_codes)
    rows = date_pos[np.concatenate([b[0] for b in blocks])]
    cols = ticker_pos[np.concatenate([b[1] for b in blocks])]
    prices = np.concatenate([b[2] for b in blocks])
    close = np.full((len(dates), len(tickers)), np.nan)
    close[rows, cols] = prices
    # A repeated key keeps one of its prices; another price of it differs
    # from the kept one exactly when the repeat conflicts.
    if not (close[rows, cols] == prices).all():
        raise _Declined("conflicting prices for a repeated (date, ticker) key")
    return dates, tickers, close


def _cells_matrix(cells: dict[tuple[date, str], float]):
    """(dates, tickers, close matrix) of the cells the csv path read."""
    dates = sorted({d for d, _ in cells})
    tickers = sorted({t for _, t in cells})
    date_idx = {d: i for i, d in enumerate(dates)}
    tick_idx = {t: j for j, t in enumerate(tickers)}
    close = np.full((len(dates), len(tickers)), np.nan)
    for (d, t), price in cells.items():
        close[date_idx[d], tick_idx[t]] = price
    return dates, tickers, close


def load_price_panel(path, layout: str = "long", metadata=None) -> PricePanel:
    """Load a close-price file (long or wide layout) into a PricePanel.

    Dates become the sorted union of all observed dates; tickers are
    deduplicated and sorted; anything unobserved stays NaN. When a metadata
    path is given every panel ticker must appear in it; otherwise all tickers
    get placeholder sector/market labels.

    A plain long file is read in blocks. Any other long file, and any file
    with a fault, goes through the csv parser, which accepts the same files
    and raises every error.
    """
    if layout == "long":
        try:
            dates, tickers, close = _read_long_blocks(path)
        except _Declined as exc:
            logger.debug("%s: block reader declined (%s); reading with the csv parser", path, exc)
            dates, tickers, close = _cells_matrix(_load_long(path))
    elif layout == "wide":
        dates, tickers, close = _cells_matrix(_load_wide(path))
    else:
        raise UsageError(f"unknown layout {layout!r} (expected 'long' or 'wide')")
    if not dates:
        raise DataError(f"{path}: no price observations")

    if metadata is not None:
        meta = load_metadata(metadata) if not isinstance(metadata, dict) else metadata
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


def write_price_panel(panel: PricePanel, path) -> None:
    """Write the panel in the long layout; round-trips through load_price_panel.

    The bytes are those of csv.writer: each ticker quoted as it quotes it,
    each price as `repr`, `\r\n` line ends and no row for a missing price.
    """
    tickers = [_csv_field(t) + "," for t in panel.tickers]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(LONG_HEADER) + "\r\n")
        for d, row in zip(panel.dates, panel.close):
            head = d.isoformat() + ","
            fh.write("".join([f"{head}{t}{v!r}\r\n" for t, v, keep in
                              zip(tickers, row.tolist(), np.isfinite(row).tolist()) if keep]))


def write_metadata(panel: PricePanel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
    """Daily log returns ln(P_t / P_{t-1}); NaN where either price is missing."""
    if len(panel.dates) < 2:
        raise DataError("log returns need at least 2 dates")
    with np.errstate(invalid="ignore"):
        values = np.log(panel.close[1:] / panel.close[:-1])
    return ReturnPanel(dates=panel.dates[1:], tickers=list(panel.tickers), values=values)


def check_window(length: int, step: int = 1) -> None:
    """The rolling-window rules: a window holds >= 3 return rows, and the step is >= 1."""
    if length < 3:
        raise UsageError(f"window length must be >= 3, got {length}")
    if step < 1:
        raise UsageError(f"window step must be >= 1, got {step}")


def window_ends(n_dates: int, length: int, step: int = 1) -> np.ndarray:
    """The rolling-window grid: 1-based end rows length, length + step, ... <= n_dates.

    Window k covers rows [ends[k] - length, ends[k]); no window fits (the
    result is empty) when n_dates < length.
    """
    check_window(length, step)
    return np.arange(length, n_dates + 1, step)
