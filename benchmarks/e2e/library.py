"""The library database the three session workloads run on.

Example 8's library, scaled, every book stamped with a ``year``
attribute, plus four one-off *annex* elements: their children are the
only schema nodes with a single instance, which gives ``read_hot`` a
class of child-step paths whose execution is a few microseconds — the
case where the plan lookup is the largest share of a request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.server import DEFAULT_WORKERS
from repro.workloads import make_library_document
from repro.xmlio.nodes import XmlDocument, XmlElement, XmlText
from repro.xmlio.qname import QName

ANNEX_KINDS = ("archive", "depot", "office", "reading_room")
ANNEX_FIELDS = ("name", "city", "floor", "curator", "phone", "hours")

#: Worker threads of every served database (``nproc`` is 2 here).
WORKERS = min(DEFAULT_WORKERS, 2)

#: The value index every session workload declares.
YEAR_INDEX = "library/book/@year"
YEARS = tuple(str(year) for year in range(1970, 2006))
YEAR = QName("", "year")
AUTHOR = QName("", "author")


def make_library(books: int, papers: int, seed: int) -> XmlDocument:
    document = make_library_document(books=books, papers=papers,
                                     seed=seed, year_attrs=True)
    for kind in ANNEX_KINDS:
        annex = XmlElement(QName("", kind))
        for name in ANNEX_FIELDS:
            child = XmlElement(QName("", name))
            child.append(XmlText(f"{kind} {name} {seed}"))
            annex.append(child)
        document.root.append(annex)
    return document


@dataclass
class Book:
    """What the driver's model knows about one ``book`` element."""

    title: str
    year: str
    authors: list[str] = field(default_factory=list)


def book_models(document: XmlDocument) -> list[Book]:
    """The driver-side model of every book, in document order."""
    return [Book(title=element.find("title").text_content(),
                 year=element.get("year"),
                 authors=[author.text_content()
                          for author in element.find_all("author")])
            for element in document.root.find_all("book")]


def paper_titles(document: XmlDocument) -> list[str]:
    return [element.find("title").text_content()
            for element in document.root.find_all("paper")]
