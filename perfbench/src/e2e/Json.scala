package perfbench

/** Minimal JSON writer for the result files the runner reads back. Values
  * are Strings, numbers, Booleans, Seqs, Maps (String keys) or None.
  */
object Json {
  def write(v: Any): String = {
    val sb = new StringBuilder
    emit(v, sb)
    sb.toString
  }

  private def emit(v: Any, sb: StringBuilder): Unit = v match {
    case null | None => sb ++= "null"
    case Some(x) => emit(x, sb)
    case s: String => quote(s, sb)
    case b: Boolean => sb ++= b.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      sb ++= java.lang.Double.toString(d)
    case f: Float => emit(f.toDouble, sb)
    case n: Int => sb ++= n.toString
    case n: Long => sb ++= n.toString
    case n: BigInt => sb ++= n.toString
    case m: scala.collection.Map[_, _] =>
      sb += '{'
      var first = true
      for ((k, x) <- m) {
        if (!first) sb += ','
        first = false
        quote(k.toString, sb); sb += ':'; emit(x, sb)
      }
      sb += '}'
    case xs: Iterable[_] =>
      sb += '['
      var first = true
      for (x <- xs) { if (!first) sb += ','; first = false; emit(x, sb) }
      sb += ']'
    case other => throw new IllegalArgumentException(s"cannot write ${other.getClass}")
  }

  private def quote(s: String, sb: StringBuilder): Unit = {
    sb += '"'
    s.foreach {
      case '"' => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c => sb += c
    }
    sb += '"'
  }

  def writeFile(path: String, v: Any): Unit = {
    val p = java.nio.file.Paths.get(path)
    java.nio.file.Files.write(p, write(v).getBytes(java.nio.charset.StandardCharsets.UTF_8))
  }
}
