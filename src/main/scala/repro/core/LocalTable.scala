package repro.core

import repro.graph.LocalGraph
import repro.graphlet.Graphlet
import repro.treelet.{ColoredTreelet, TreeletEnum}
import scala.collection.mutable
import scala.util.Random

/** Motivo's compact count table and sampler (paper §3.1–§3.3), in-memory.
  *
  * Per vertex and per treelet size, the build-up's [[CountTable]]s: codes
  * sorted ascending next to exact counts, so `occCt(T_C, v)` is an O(k)
  * binary search and iteration is cache-friendly. Level k also keeps the
  * *cumulative* counts (the paper's η(T_C, v)) as `Double`s, so drawing a
  * colored treelet at a root is a binary search too; every other weight is
  * read from its exact count. Root sampling uses the alias method;
  * large-degree neighbor sweeps are amortized with neighbor buffering
  * (§3.2: one sweep yields `bufferDraws` draws, 99% of sweeps skipped for
  * hubs).
  */
final class MotivoLocalTable(
    val g: LocalGraph,
    val colors: Array[Int],
    val k: Int,
    tables: Array[Array[CountTable]],   // tables(h)(v), h = 1..k
    // the paper buffers at degree ≥ 10^4 on 10^6..10^9-edge graphs; our
    // graphs are ~1000× smaller, so the threshold scales down too
    val bufferThreshold: Int = 250,
    val bufferDraws: Int = 100) {

  /** Exact occ_k per vertex (0-rooted). */
  val exactTotals: Array[BigInt] = tables(k).map(_.total)

  /** Total colorful k-treelet copies t (exact). */
  val totalTreelets: BigInt = exactTotals.foldLeft(BigInt(0))(_ + _)

  // cums(v): cumulative level-k counts at v, for drawFromRecord only
  private val cums: Array[Array[Double]] = tables(k).map(cumulative(_, _ => true))

  private def cumulative(t: CountTable, keep: Int => Boolean): Array[Double] = {
    var acc = 0.0
    (0 until t.size).filter(keep).map { i => acc += t.weight(i); acc }.toArray
  }

  private def freeShape(ct: Long): Int = TreeletEnum.freeShape(ColoredTreelet.shape(ct))

  /** r_j: colorful k-treelet copies per free shape (exact would need BigInt
    * per pair; Double is ample for sampling probabilities and AGS ratios).
    */
  lazy val totalsByShape: Map[Int, Double] =
    tables(k).toSeq.flatMap(_.byFreeShape).groupMapReduce(_._1)(_._2.toDouble)(_ + _)

  /** Total treelet weight rooted at v at level h. */
  def occ(h: Int, v: Int): Double = tables(h)(v).total.toDouble

  /** O(k): count of a specific colored treelet at v (binary search). */
  def occCt(h: Int, v: Int, ct: Long): Double = {
    val t = tables(h)(v)
    val i = java.util.Arrays.binarySearch(t.codes, ct)
    if (i < 0) 0.0 else t.weight(i)
  }

  private val rootAlias: Alias = Alias(exactTotals.map(_.toDouble).toArray match {
    case a if a.forall(_ == 0.0) => throw new IllegalStateException("empty urn: no colorful k-treelets")
    case a => a
  })

  // Lazily-built per-shape samplers (AGS rebuilds the alias per shape, §3.3).
  private val shapeSamplers = mutable.HashMap.empty[Int, ShapeSampler]

  private final class ShapeSampler(shape: Int) {
    // level-k records filtered to codes of this free shape
    val fKeys: Array[Array[Long]] = tables(k).map(t => t.codes.filter(freeShape(_) == shape))
    val fCums: Array[Array[Double]] = tables(k).map(t => cumulative(t, i => freeShape(t.codes(i)) == shape))
    val totals: Array[Double] = fCums.map(c => if (c.isEmpty) 0.0 else c.last)
    val alias: Option[Alias] = if (totals.sum > 0) Some(Alias(totals)) else None
  }

  // Neighbor-sum and neighbor-buffer caches (§3.2 neighbor buffering).
  private val sumCache = mutable.HashMap.empty[Long, Double]
  private val bufCache = mutable.HashMap.empty[Long, mutable.ArrayDeque[Int]]
  private def cacheKey(v: Int, ct: Long): Long = v.toLong * 0x9E3779B97F4A7C15L ^ ct

  /** Σ_{u~v} c(ct, u) with memoization (part of the buffered sweep). */
  private def neighborSum(h: Int, v: Int, ct: Long): Double = {
    val key = cacheKey(v, ct) ^ (h.toLong << 56)
    sumCache.getOrElseUpdate(key, {
      var s = 0.0
      val d = g.degree(v)
      var i = 0
      while (i < d) { s += occCt(h, v = g.neighborAt(v, i), ct = ct); i += 1 }
      s
    })
  }

  /** Draw u ~ v with probability ∝ c(ct, u). For hub vertices the sweep is
    * amortized: one pass fills a buffer of `bufferDraws` draws.
    */
  private def drawNeighbor(h: Int, v: Int, ct: Long, rnd: Random): Int = {
    val d = g.degree(v)
    if (d >= bufferThreshold) {
      val key = cacheKey(v, ct) ^ (h.toLong << 52)
      val buf = bufCache.getOrElseUpdate(key, mutable.ArrayDeque.empty[Int])
      if (buf.isEmpty) refillBuffer(h, v, ct, rnd, buf)
      buf.removeHead()
    } else {
      sweepDraw(h, v, ct, rnd)
    }
  }

  private def refillBuffer(h: Int, v: Int, ct: Long, rnd: Random,
                           buf: mutable.ArrayDeque[Int]): Unit = {
    val d = g.degree(v)
    val cum = new Array[Double](d)
    var s = 0.0
    var i = 0
    while (i < d) { s += occCt(h, g.neighborAt(v, i), ct); cum(i) = s; i += 1 }
    require(s > 0, s"no neighbor of $v holds treelet ${ColoredTreelet.toPrettyString(ct)}")
    var t = 0
    while (t < bufferDraws) {
      val x = rnd.nextDouble() * s
      var lo = 0; var hi = d - 1
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (cum(mid) < x) lo = mid + 1 else hi = mid }
      buf.append(g.neighborAt(v, lo))
      t += 1
    }
  }

  private def sweepDraw(h: Int, v: Int, ct: Long, rnd: Random): Int = {
    val d = g.degree(v)
    var s = 0.0
    var i = 0
    while (i < d) { s += occCt(h, g.neighborAt(v, i), ct); i += 1 }
    require(s > 0, s"no neighbor of $v holds treelet ${ColoredTreelet.toPrettyString(ct)}")
    val x = rnd.nextDouble() * s
    var acc = 0.0
    i = 0
    while (i < d) {
      acc += occCt(h, g.neighborAt(v, i), ct)
      if (acc >= x) return g.neighborAt(v, i)
      i += 1
    }
    g.neighborAt(v, d - 1)
  }

  /** Draw one colorful k-treelet copy u.a.r.; returns its k vertices.
    * `shape = Some(T_j)` restricts to copies of that free shape — the
    * sample(T) primitive of AGS (§4).
    */
  def sampleTreeletCopy(rnd: Random, shape: Option[Int] = None): Array[Int] = {
    val (v0, ct0) = shape match {
      case None =>
        val v = rootAlias.draw(rnd)
        (v, drawFromRecord(tables(k)(v).codes, cums(v), rnd))
      case Some(sh) =>
        val ss = shapeSamplers.getOrElseUpdate(sh, new ShapeSampler(sh))
        val al = ss.alias.getOrElse(
          throw new IllegalArgumentException(s"shape has no colorful copies: $sh"))
        val v = al.draw(rnd)
        (v, drawFromRecord(ss.fKeys(v), ss.fCums(v), rnd))
    }
    val verts = new Array[Int](k)
    expand(v0, ct0, verts, rnd)
    verts
  }

  /** Draw one sample and return its canonical induced graphlet code. */
  def sampleGraphlet(rnd: Random, shape: Option[Int] = None): Long = {
    val verts = sampleTreeletCopy(rnd, shape)
    Graphlet.canonical(LocalGraph.inducedAdj(g, verts))
  }

  private def drawFromRecord(ks: Array[Long], cs: Array[Double], rnd: Random): Long = {
    val tot = cs(cs.length - 1)
    val x = rnd.nextDouble() * tot
    var lo = 0; var hi = cs.length - 1
    while (lo < hi) { val mid = (lo + hi) >>> 1; if (cs(mid) < x) lo = mid + 1 else hi = mid }
    ks(lo)
  }

  /** Recursive expansion (§2.2): pick a color split C' ⊎ C'' and a neighbor
    * u with probability ∝ c(T'_{C'}, v) · Σ_u c(T''_{C''}, u), then recurse.
    * Vertices land in `verts` indexed by color rank, so the output order is
    * canonical per sample.
    */
  private def expand(v: Int, ct: Long, verts: Array[Int], rnd: Random): Unit = {
    if (ColoredTreelet.size(ct) == 1) {
      // verts is indexed by color id — colorful ⇒ a bijection colors↔slots.
      val color = Integer.numberOfTrailingZeros(ColoredTreelet.colorMask(ct))
      verts(color) = v
      return
    }
    val h = ColoredTreelet.size(ct)
    val splits = ColoredTreelet.colorSplits(ct)
    val h2 = ColoredTreelet.size(splits.head._2)
    val h1 = h - h2
    // weight per split: c(ct1, v) · Σ_{u~v} c(ct2, u)
    val ws = splits.map { case (ct1, ct2) =>
      val w1 = occCt(h1, v, ct1)
      if (w1 == 0.0) 0.0 else w1 * neighborSum(h2, v, ct2)
    }.toArray
    val tot = ws.sum
    require(tot > 0, s"inconsistent table: no valid split for ${ColoredTreelet.toPrettyString(ct)} at $v")
    var x = rnd.nextDouble() * tot
    var si = 0
    while (si < ws.length - 1 && x > ws(si)) { x -= ws(si); si += 1 }
    val (ct1, ct2) = splits(si)
    val u = drawNeighbor(h2, v, ct2, rnd)
    expand(v, ct1, verts, rnd)
    expand(u, ct2, verts, rnd)
  }

  /** Total byte footprint of the compact table, the Table-3 metric. The
    * paper packs 176 bits/pair; we hold 128 bits/pair (8B code + 8B `Long`
    * count), 8B more per level-k pair for its cumulative count, and the
    * exact per-vertex totals.
    */
  def byteSize: Long = pairCount * 16 + cums.iterator.map(_.length.toLong).sum * 8 + g.n.toLong * 16

  def pairCount: Long = (1 to k).iterator.flatMap(tables(_).iterator).map(_.size.toLong).sum
}

object MotivoLocalTable {

  /** The table over a build-up result's level tables, as they are. */
  def fromResult(r: LocalEngine.Result, bufferThreshold: Int = 250): MotivoLocalTable =
    new MotivoLocalTable(r.g, r.colors, r.k, r.tables, bufferThreshold)
}
