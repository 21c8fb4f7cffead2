package perfbench.trace

import scala.collection.mutable

/** In-memory span recorder. A span has a name, start and end (nanoseconds
  * since the tracer was created), the span open when it began as its
  * parent, and counters. Spans are only held in memory; `toJson` writes
  * them out when the run ends.
  */
final class Tracer {
  final class Span(val id: Int, val parent: Int, val name: String, val start: Long) {
    var end: Long = -1L
    val attrs: mutable.LinkedHashMap[String, Any] = mutable.LinkedHashMap.empty
    def seconds: Double = (end - start) / 1e9
  }

  private val origin = System.nanoTime()
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open = List.empty[Span]

  def begin(name: String): Span = {
    val s = new Span(spans.size, open.headOption.map(_.id).getOrElse(-1), name, System.nanoTime() - origin)
    spans += s
    open = s :: open
    s
  }

  def end(s: Span): Unit = {
    require(open.headOption.contains(s), s"span ${s.name} closed out of order")
    s.end = System.nanoTime() - origin
    open = open.tail
  }

  def span[T](name: String)(body: Span => T): T = {
    val s = begin(name)
    try body(s) finally end(s)
  }

  def one(name: String): Span = spans.filter(_.name == name).toSeq match {
    case Seq(s) => s
    case ss => throw new IllegalStateException(s"expected one span $name, found ${ss.size}")
  }

  def toJson: Seq[Map[String, Any]] = spans.toSeq.map { s =>
    Map("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "start_s" -> s.start / 1e9, "end_s" -> s.end / 1e9, "attrs" -> s.attrs.toMap)
  }
}
