package repro.core

import org.apache.spark.{HashPartitioner, SparkException}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DecimalType, IntegerType, LongType, StructField, StructType}
import org.apache.spark.storage.StorageLevel
import repro.graph.LocalGraph
import scala.collection.mutable

/** Motivo's build-up phase as distributed dataflow: the dynamic program of
  * Eq. (1) over one vertex-partitioned state RDD.
  *
  * `ColoredTreelet.tryMerge` depends only on the two codes, so Eq. (1)
  * factors through the neighbor sums S_h(v) = Σ_{u~v} c(·, u) at level h.
  * Each vertex keeps its color, its adjacency, its level tables and its
  * neighbor sums; all of it lives in one RDD hash-partitioned by vertex
  * into `spark.sql.shuffle.partitions` parts. Level h costs one shuffle
  * (every vertex sends its level-(h−1) table to its neighbors, combined
  * into S_{h−1}) and one narrow co-partitioned step that evaluates Eq. (1)
  * per vertex with [[CountTable.eq1]], the kernel [[LocalEngine]] runs
  * too. Lineage grows linearly in k.
  *
  * Level h is exposed as a DataFrame (v: Long, tc: Long, cnt: Decimal(38,0))
  * over the state — a single `LogicalRDD` node whatever h is.
  *
  * Fidelity notes:
  * - counts are exact inside the DP (`Long`, or `BigInt` past `Long`; see
  *   [[CountTable]]); `Decimal(38,0)` appears only at the DataFrame
  *   boundary ([[toCountDecimal]]), which fails loudly on counts of 10^38
  *   or more — about where the paper's 128-bit counters overflow;
  * - 0-rooting (§3.2): at h = k only color-0 roots are produced;
  * - biased coloring (§3.4) arrives through the colors DataFrame;
  * - greedy flushing / mmap I/O become persist(MEMORY_AND_DISK) per level —
  *   Spark's native spill plays the role of the paper's disk tables.
  */
object BuildUp {

  val CountType: DecimalType = DecimalType(38, 0)

  private val CountLimit = BigInt(10).pow(38)

  /** The one `BigInt` → `Decimal(38,0)` conversion: throws
    * `ArithmeticException` when |c| ≥ 10^38.
    */
  def toCountDecimal(c: BigInt): java.math.BigDecimal = {
    if (c.abs >= CountLimit)
      throw new ArithmeticException(s"count $c does not fit Decimal(38,0)")
    new java.math.BigDecimal(c.bigInteger)
  }

  private val LevelSchema = StructType(Seq(
    StructField("v", LongType, nullable = false),
    StructField("tc", LongType, nullable = false),
    StructField("cnt", CountType, nullable = false)))

  /** Per-vertex DP state after level h: `tables(i)` holds level i+1 and
    * `sums(i)` the neighbor sum S_{i+1}.
    */
  private[core] final class VertexState(val color: Int, val adj: Array[Long],
                                        val tables: Array[CountTable], val sums: Array[CountTable])
      extends Serializable {

    /** Level h from levels 1..h−1 and the newly arrived S_{h−1}. */
    def next(h: Int, k: Int, zeroRoot: Boolean, sum: CountTable): VertexState = {
      val allSums = sums :+ sum
      val table =
        if (zeroRoot && h == k && color != 0) CountTable.Empty
        else CountTable.eq1(h, h1 => tables(h1 - 1), h2 => allSums(h2 - 1))
      new VertexState(color, adj, tables :+ table, if (h == k) Array.empty else allSums)
    }
  }

  final class Result private[BuildUp] (val spark: SparkSession, val k: Int, val zeroRoot: Boolean,
                                       state: RDD[(Long, VertexState)], val pairCounts: Seq[Long]) {

    /** Level h DataFrames, 1-based through [[level]]. */
    val levels: IndexedSeq[DataFrame] = (1 to k).map(levelFrame(spark, state, _))

    /** Level h table, 1-based: (v, tc, cnt). */
    def level(h: Int): DataFrame = levels(h - 1)

    /** t: total number of colorful k-treelet copies (0-rooted ⇒ each once). */
    lazy val totalTreelets: BigInt = {
      val top = k - 1
      state.map(_._2.tables(top).total).fold(BigInt(0))(_ + _)
    }

    /** r_j of AGS: copies per free k-treelet shape. */
    lazy val totalsByShape: Map[Int, BigInt] = {
      val top = k - 1
      state.flatMap(_._2.tables(top).byFreeShape).reduceByKey(_ + _).collect().toMap
    }

    /** Collect into the in-memory engine's representation (small graphs
      * only), in one job — bridges the Spark DP to the local samplers and
      * to exact equality tests against [[LocalEngine]].
      */
    def toLocalResult(g: LocalGraph, colors: Array[Int]): LocalEngine.Result = {
      val tables = new Array[LocalEngine.Level](k + 1)
      for (h <- 1 to k) tables(h) = Array.fill(g.n)(CountTable.Empty)
      for ((v, ts) <- state.mapValues(_.tables).collect(); h <- 1 to k) tables(h)(v.toInt) = ts(h - 1)
      LocalEngine.Result(g, colors, k, zeroRoot, tables)
    }

    def unpersist(): Unit = state.unpersist(blocking = false)
  }

  private def levelFrame(spark: SparkSession, state: RDD[(Long, VertexState)], h: Int): DataFrame =
    spark.createDataFrame(state.flatMap { case (v, s) =>
      val t = s.tables(h - 1)
      t.codes.indices.iterator.map(i => Row(v, t.codes(i), toCountDecimal(t.count(i))))
    }, LevelSchema)

  /** Run the DP. Every level is computed by exactly one DataFrame action,
    * in level order.
    *
    * @param edges    symmetric simple edge list (src, dst), both directions
    * @param colors   (v, col) with col in [0, k)
    * @param zeroRoot restrict level k to color-0 roots (§3.2)
    * @throws IllegalArgumentException on a self-loop, a duplicated directed
    *         edge, an edge endpoint without a row in `colors`, a vertex with
    *         more than one row in `colors`, or a color outside [0, k)
    */
  def run(spark: SparkSession, edges: DataFrame, colors: DataFrame, k: Int,
          zeroRoot: Boolean = true,
          storage: StorageLevel = StorageLevel.MEMORY_AND_DISK): Result = {
    require(k >= 2 && k <= 8, s"k=$k out of [2,8]")
    val part = new HashPartitioner(spark.conf.get("spark.sql.shuffle.partitions").toInt)
    val arcs = edges.select(col("src").cast(LongType), col("dst").cast(LongType)).rdd
      .map(r => (r.getLong(0), r.getLong(1)))
    val colorOf = colors.select(col("v").cast(LongType), col("col").cast(IntegerType)).rdd
      .map(r => (r.getLong(0), r.getInt(1)))

    // Keyed by source and, through the swapped arcs, by destination too, so
    // every edge endpoint meets its color row here (or its absence).
    val level1 = colorOf.cogroup(arcs, arcs.map(_.swap), part).mapPartitions(_.map {
      case (v, (cs, out, _)) =>
        if (cs.isEmpty)
          throw new IllegalArgumentException(s"edge endpoint $v has no row in colors")
        val adj = out.toArray.sorted
        if (java.util.Arrays.binarySearch(adj, v) >= 0)
          throw new IllegalArgumentException(s"self-loop at vertex $v")
        for (i <- 1 until adj.length if adj(i) == adj(i - 1))
          throw new IllegalArgumentException(s"duplicated edge ($v, ${adj(i)})")
        if (cs.size > 1)
          throw new IllegalArgumentException(s"vertex $v has ${cs.size} rows in colors")
        val c = cs.head
        if (c < 0 || c >= k)
          throw new IllegalArgumentException(s"color $c of vertex $v outside [0, $k)")
        v -> new VertexState(c, adj, Array(CountTable.singleton(c)), Array.empty)
    }, preservesPartitioning = true)

    val pairs = mutable.ArrayBuffer.empty[Long]
    var state: RDD[(Long, VertexState)] = level1.persist(storage)
    pairs += countLevel(spark, state, 1)
    for (h <- 2 to k) {
      val sum = state
        .flatMap { case (_, s) =>
          val t = s.tables(h - 2)
          if (t.size == 0) Iterator.empty else s.adj.iterator.map(u => (u, t))
        }
        .combineByKey[CountTable](identity[CountTable] _, CountTable.add _, CountTable.add _, part)
      val next = state.leftOuterJoin(sum, part)
        .mapValues { case (s, in) => s.next(h, k, zeroRoot, in.getOrElse(CountTable.Empty)) }
        .persist(storage)
      pairs += countLevel(spark, next, h)
      state.unpersist(blocking = false)
      state = next
    }
    new Result(spark, k, zeroRoot, state, pairs.toSeq)
  }

  /** The level's one DataFrame action; its pair count. A malformed-input
    * `IllegalArgumentException` from a task is rethrown as is.
    */
  private def countLevel(spark: SparkSession, state: RDD[(Long, VertexState)], h: Int): Long =
    try levelFrame(spark, state, h).count()
    catch {
      case e: SparkException =>
        Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
          .collectFirst { case iae: IllegalArgumentException => iae }
          .foreach { iae => state.unpersist(blocking = false); throw iae }
        throw e
    }

  /** Convenience: run on a LocalGraph with a given coloring. */
  def runLocalGraph(spark: SparkSession, g: LocalGraph, coloring: repro.color.Coloring,
                    zeroRoot: Boolean = true): Result = {
    val edges = repro.graph.Graphs.edgesDF(spark, g)
    val colors = coloring.colorsDF(spark, g.n.toLong)
    run(spark, edges, colors, coloring.k, zeroRoot)
  }
}
