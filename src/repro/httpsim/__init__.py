"""repro.httpsim — HTTP substrate: crafting, serving, fetching, diffing.

Requests are modelled down to their raw bytes because the paper's
evasions live in formatting details RFC-compliant servers ignore but
exact-match middleboxes trip over.
"""

from .https import (
    HTTPSFetchResult,
    HTTPSOriginServer,
    https_fetch,
)
from .tls import (
    HTTPS_PORT,
    client_hello_bytes,
    parse_client_hello,
    seal,
    split_records,
    unseal,
)
from .client import DEFAULT_FETCH_TIMEOUT, FetchResult, fetch_url, http_fetch
from .diff import (
    AUTHORS_DIFF_THRESHOLD,
    OONI_BODY_PROPORTION_THRESHOLD,
    body_difference,
    body_length_proportion,
    header_names_match,
    titles_comparable,
    titles_match,
)
from .message import (
    DEFAULT_BROWSER_HEADERS,
    GetRequestSpec,
    HTTPResponse,
    STANDARD_SERVER_HEADERS,
    make_response,
    parse_responses,
)
from .parsing import (
    ParsedRequest,
    parse_request_stream,
    parse_request_unit,
    split_request_units,
)
from .server import DomainHandler, OriginServer

__all__ = [
    "AUTHORS_DIFF_THRESHOLD",
    "DEFAULT_BROWSER_HEADERS",
    "DEFAULT_FETCH_TIMEOUT",
    "DomainHandler",
    "FetchResult",
    "GetRequestSpec",
    "HTTPSFetchResult",
    "HTTPSOriginServer",
    "HTTPS_PORT",
    "HTTPResponse",
    "OONI_BODY_PROPORTION_THRESHOLD",
    "OriginServer",
    "ParsedRequest",
    "STANDARD_SERVER_HEADERS",
    "body_difference",
    "body_length_proportion",
    "fetch_url",
    "client_hello_bytes",
    "header_names_match",
    "https_fetch",
    "http_fetch",
    "make_response",
    "parse_client_hello",
    "parse_request_stream",
    "parse_request_unit",
    "parse_responses",
    "seal",
    "split_records",
    "split_request_units",
    "unseal",
    "titles_comparable",
    "titles_match",
]
